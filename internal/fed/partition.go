package fed

import "fmt"

// Partition maps the chain onto shards by routing region: region r
// lives on shard r mod n. It is total — every region is owned by
// exactly one shard — so the shard stores tile the transaction set
// with no overlap and no gaps, the property every merge strategy's
// exactness rests on. Every shard spans every height.
type Partition struct{ n int }

// ByRegion partitions the NumRegions routing regions round-robin
// across n shards. n beyond NumRegions leaves the surplus shards
// empty.
func ByRegion(n int) Partition {
	if n < 1 {
		n = 1
	}
	return Partition{n: n}
}

// NumShards is the cluster size the partition was built for.
func (p Partition) NumShards() int { return p.n }

// Owns returns the shard owning transactions of the given routing
// region.
func (p Partition) Owns(region int) ShardID {
	if region < 0 {
		region = 0
	}
	return ShardID(region % p.n)
}

// CoversRegion reports whether the shard's slice can contain
// transactions of the given routing region.
func (p Partition) CoversRegion(sh ShardID, region int) bool {
	return region >= 0 && ShardID(region%p.n) == sh
}

// Describe renders the shard's slice for operators.
func (p Partition) Describe(sh ShardID) string {
	owned := 0
	for r := int(sh); r < NumRegions; r += p.n {
		owned++
	}
	return fmt.Sprintf("regions %d mod %d (%d of %d)", int(sh), p.n, owned, NumRegions)
}
