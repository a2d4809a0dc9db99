package fed

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"peoplesnet/internal/chain"
	"peoplesnet/internal/etl"
)

// countRanges are the ranges of the count corpora: they start and end
// mid-segment, cover one block, run past the tip, or cover the whole
// chain.
func countRanges(c *chain.Chain) []etl.Range {
	blocks := c.Blocks()
	tip := c.Height()
	at := func(i int) int64 { return blocks[i].Height }
	n := len(blocks)
	return []etl.Range{
		etl.All(),
		{From: 0, To: tip},
		{From: at(n / 10), To: at(n/2 + 7)},
		{From: at(n / 3), To: at(n / 3)},
		{From: at(n - 5), To: tip + 100},
		{From: tip + 1, To: -1},
	}
}

// countRegionQueries is the region-count corpus: every region over
// countRanges, answered from segment summaries; plus region counts
// with a type filter, which take the scan path.
func countRegionQueries(c *chain.Chain) []Query {
	ranges := countRanges(c)
	var qs []Query
	for r := 0; r < NumRegions; r++ {
		for _, rg := range ranges {
			qs = append(qs, Query{Kind: KindCount, Range: rg, HasRegion: true, Region: r})
		}
		qs = append(qs, Query{Kind: KindCount, Range: ranges[2], HasRegion: true, Region: r,
			Filter: etl.Filter{Types: []chain.TxnType{chain.TxnPoCReceipt, chain.TxnPayment}}})
	}
	return qs
}

// countTypeQueries is the type-count corpus: every transaction type,
// a pair, a repeated type and a type outside the vocabulary, over
// countRanges; the whole-chain ranges are answered from the store's
// type mix, the others by a scan. Plus a type count with an actor
// filter, which takes the scan path.
func countTypeQueries(c *chain.Chain) []Query {
	sets := [][]chain.TxnType{
		{chain.TxnPoCReceipt, chain.TxnPayment},
		{chain.TxnAssertLocation, chain.TxnAssertLocation},
		{chain.TxnType(200)},
		{chain.TxnType(200), chain.TxnRewards},
	}
	for tt := chain.TxnAddGateway; tt <= chain.TxnSecurityCoinbase; tt++ {
		sets = append(sets, []chain.TxnType{tt})
	}
	ranges := countRanges(c)
	var qs []Query
	for _, types := range sets {
		for _, rg := range ranges {
			qs = append(qs, Query{Kind: KindCount, Range: rg, Filter: etl.Filter{Types: types}})
		}
	}
	return append(qs, Query{Kind: KindCount, Range: ranges[2],
		Filter: etl.Filter{Types: []chain.TxnType{chain.TxnPoCReceipt}, Actors: sampleActors(c, 4)}})
}

// checkCounts runs the corpus against the cluster and requires every
// answer to equal the reference, with no shard missing.
func checkCounts(t *testing.T, cl *Cluster, qs []Query, want []*Result) {
	t.Helper()
	for i, q := range qs {
		res, err := cl.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if len(res.Missing) > 0 || len(res.Gaps) > 0 {
			t.Fatalf("query %d: missing=%v gaps=%v", i, res.Missing, res.Gaps)
		}
		if res.Count != want[i].Count {
			t.Fatalf("query %d (region %v/%d, range %+v, types %v): count %d, want %d",
				i, q.HasRegion, q.Region, q.Range, q.Filter.Types, res.Count, want[i].Count)
		}
	}
}

// TestCountRegionSummaries: region counts answered from per-segment
// summaries equal the reference (see testCountCorpus).
func TestCountRegionSummaries(t *testing.T) {
	c := testChain(t)
	testCountCorpus(t, c, countRegionQueries(c))
}

// TestCountTypeSummaries: type counts, answered from the store's type
// mix when the range covers the store, equal the reference (see
// testCountCorpus).
func TestCountTypeSummaries(t *testing.T) {
	c := testChain(t)
	testCountCorpus(t, c, countTypeQueries(c))
}

// testCountCorpus checks a count corpus against the reference on every
// shard layout, on durable shards with a non-empty pending buffer,
// after the durable stores are reopened (unloaded stub segments), and
// after a shard is killed and restarted by its supervisor.
func testCountCorpus(t *testing.T, c *chain.Chain, qs []Query) {
	blocks := c.Blocks()
	want := make([]*Result, len(qs))
	nonZero := 0
	for i, q := range qs {
		want[i] = Reference(blocks, q)
		if want[i].Count > 0 {
			nonZero++
		}
	}
	if nonZero < len(qs)/4 {
		t.Fatalf("only %d of %d reference answers are non-zero", nonZero, len(qs))
	}

	for name, part := range testPartitions() {
		t.Run(name, func(t *testing.T) {
			cl := testCluster(t, c, part, Options{CacheSize: -1})
			checkCounts(t, cl, qs, want)
		})
	}

	// Durable shards sealing every sb blocks, sb chosen so the last
	// blocks stay pending.
	sb := 16
	for len(blocks)%sb == 0 {
		sb++
	}
	base := t.TempDir()
	opts := Options{
		CacheSize: -1,
		ShardStore: func(id ShardID) (string, etl.Config) {
			return filepath.Join(base, fmt.Sprintf("shard-%d", id)), etl.Config{SegmentBlocks: sb}
		},
	}
	part := ByRegion(4)
	t.Run("durable-pending", func(t *testing.T) {
		cl := testCluster(t, c, part, opts)
		for _, sl := range cl.slots {
			if st := sl.current().store.Stats(); st.PendingBlocks == 0 {
				t.Fatalf("shard %d has no pending blocks", sl.id)
			}
		}
		checkCounts(t, cl, qs, want)
	})
	t.Run("durable-reopened", func(t *testing.T) {
		cl := FollowChain(c, part, opts)
		t.Cleanup(func() { cl.Close() })
		// Open is synchronous: a store that resumed, rather than
		// re-ingesting cold, holds the whole chain before its
		// follower has read a block.
		for _, sl := range cl.slots {
			if h := sl.current().store.Height(); h != c.Height() {
				t.Fatalf("shard %d reopened at height %d, want %d", sl.id, h, c.Height())
			}
		}
		checkCounts(t, cl, qs, want)
	})
	t.Run("killed-restarted", func(t *testing.T) {
		cl := testCluster(t, c, part, opts)
		sup := cl.Supervise(fastSupervision())
		victim := cl.slots[0].current()
		if err := cl.Kill(0); err != nil {
			t.Fatal(err)
		}
		waitFor(t, time.Minute, "shard 0 to restart", func() bool {
			n := cl.slots[0].current()
			return n != nil && n != victim && n.Err() == nil && sup.Status()[0].Restarts > 0
		})
		chaosWait(t, cl, c.Height())
		checkCounts(t, cl, qs, want)
	})
}
