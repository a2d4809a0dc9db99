package etl

import (
	"math"

	"peoplesnet/internal/chain"
	"peoplesnet/internal/geo"
	"peoplesnet/internal/h3lite"
)

// NumRegions is the fixed size of the geographic routing vocabulary.
// It deliberately matches the simulator's 24-region world
// decomposition (internal/simnet): a region partition then aligns
// with where activity is actually generated, so PoC traffic for one
// metro lands on one shard.
const NumRegions = 24

// RegionOf maps a transaction to its routing region. Located
// transactions (gateway adds/asserts, PoC receipts) use their
// asserted cell; everything else hashes its home actor — the first
// address the transaction mentions — so one actor's unlocated
// activity (payments, rewards entries aside) stays on one shard.
// Transactions with neither a location nor an actor land in region 0.
// It is a pure function of the transaction, which is what lets a
// sealed segment summarize its regions once (regionCounts).
func RegionOf(t chain.Txn) int {
	if c, ok := txnCell(t); ok {
		return regionOfPoint(c.Center())
	}
	if a := homeActor(t); a != "" {
		return regionOfActor(a)
	}
	return 0
}

// txnCell extracts the location a transaction asserts, if any.
func txnCell(t chain.Txn) (h3lite.Cell, bool) {
	switch v := t.(type) {
	case *chain.AddGateway:
		if v.Location.Valid() {
			return v.Location, true
		}
	case *chain.AssertLocation:
		if v.Location.Valid() {
			return v.Location, true
		}
	case *chain.PoCReceipt:
		if v.ChallengeeLocation.Valid() {
			return v.ChallengeeLocation, true
		}
	default:
		// Every other variant routes by home actor.
	}
	return h3lite.InvalidCell, false
}

// homeActor returns the first non-empty address actorsOf would emit
// for t, stopping there: a rewards or state-channel-close
// transaction's entries are read only up to the first one that names
// someone.
func homeActor(t chain.Txn) string {
	switch v := t.(type) {
	case *chain.AddGateway:
		return firstOf(v.Gateway, v.Owner)
	case *chain.AssertLocation:
		return firstOf(v.Gateway, v.Owner)
	case *chain.TransferHotspot:
		return firstOf(firstOf(v.Gateway, v.Seller), v.Buyer)
	case *chain.PoCRequest:
		return v.Challenger
	case *chain.PoCReceipt:
		if a := firstOf(v.Challenger, v.Challengee); a != "" {
			return a
		}
		for i := range v.Witnesses {
			if a := v.Witnesses[i].Witness; a != "" {
				return a
			}
		}
	case *chain.StateChannelOpen:
		return v.Owner
	case *chain.StateChannelClose:
		if v.Owner != "" {
			return v.Owner
		}
		for i := range v.Summaries {
			if a := v.Summaries[i].Hotspot; a != "" {
				return a
			}
		}
	case *chain.Payment:
		return firstOf(v.Payer, v.Payee)
	case *chain.TokenBurn:
		return firstOf(v.Payer, v.Destination)
	case *chain.OUIRegistration:
		return v.Owner
	case *chain.Rewards:
		for i := range v.Entries {
			if a := firstOf(v.Entries[i].Account, v.Entries[i].Gateway); a != "" {
				return a
			}
		}
	case *chain.ConsensusGroup:
		for _, m := range v.Members {
			if m != "" {
				return m
			}
		}
	case *chain.RoutingUpdate:
		return v.Owner
	case *chain.StakeValidator:
		return firstOf(v.Owner, v.Validator)
	case *chain.DCCoinbase:
		return v.Payee
	case *chain.SecurityCoinbase:
		return v.Payee
	}
	return ""
}

// firstOf returns a unless it is empty, else b.
func firstOf(a, b string) string {
	if a != "" {
		return a
	}
	return b
}

// regionOfPoint maps a location onto the region set with the same
// ~4°×4° grid hash the simulator partitions the world with
// (simnet.regionOfPoint) — kept bit-identical so fed regions coincide
// with simulation regions.
func regionOfPoint(p geo.Point) int {
	gy := uint64((p.Lat + 90) / 4)
	gx := uint64((p.Lon + 180) / 4)
	h := gy*0x9e3779b97f4a7c15 ^ gx*0xc2b2ae3d27d4eb4f
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int(h % NumRegions)
}

// regionOfActor spreads unlocated activity over the regions by
// address hash (FNV-1a).
func regionOfActor(a string) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(a); i++ {
		h ^= uint64(a[i])
		h *= 1099511628211
	}
	return int(h % NumRegions)
}

// regionCounts returns the segment's transaction count per routing
// region. The summary is built lazily, by the first CountRegion that
// covers the whole segment, and never persisted: the sidecar does not
// carry it, so a reopened store rebuilds it on first use. A sealed
// segment never changes and RegionOf is pure, so it is immutable once
// built and readers never lock. The segment must be loaded.
func (g *segment) regionCounts() *[NumRegions]int64 {
	g.regionsOnce.Do(func() {
		var rc [NumRegions]int64
		for _, b := range g.blocks {
			for _, t := range b.Txns {
				rc[RegionOf(t)]++
			}
		}
		g.regions = &rc
	})
	return g.regions
}

// CountRegion counts the transactions in r whose RegionOf is region.
// Sealed segments lying wholly inside r answer from their region
// summaries (regionCounts); only the segments r cuts and the pending
// buffer are scanned. A broken segment counts nothing, as in Scan.
func (s *Store) CountRegion(r Range, region int) int64 {
	if region < 0 || region >= NumRegions {
		return 0
	}
	sealed, pending := s.view()
	to := r.To
	if to < 0 {
		to = math.MaxInt64
	}
	var n int64
	tally := func(_ int64, t chain.Txn) bool {
		if RegionOf(t) == region {
			n++
		}
		return true
	}
	for _, g := range sealed {
		if !g.overlaps(r.From, to) {
			continue
		}
		if g.from >= r.From && g.to <= to {
			if g.load() {
				n += g.regionCounts()[region]
			}
			continue
		}
		scanSegment(g, r.From, to, Filter{}, 0, tally)
	}
	scanBlocks(pending, r.From, to, Filter{}, 0, tally)
	return n
}
