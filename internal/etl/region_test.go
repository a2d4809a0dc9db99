package etl

import (
	"fmt"
	"sync"
	"testing"

	"peoplesnet/internal/chain"
	"peoplesnet/internal/h3lite"
	"peoplesnet/internal/simnet"
)

// homeActorFullWalk is the full-walk definition homeActor must keep:
// every address actorsOf emits is visited, and the first non-empty
// one is kept.
func homeActorFullWalk(t chain.Txn) string {
	first := ""
	ActorsOf(t, func(a string) {
		if first == "" {
			first = a
		}
	})
	return first
}

// regionOfFullWalk is RegionOf over homeActorFullWalk.
func regionOfFullWalk(t chain.Txn) int {
	if c, ok := txnCell(t); ok {
		return regionOfPoint(c.Center())
	}
	if a := homeActorFullWalk(t); a != "" {
		return regionOfActor(a)
	}
	return 0
}

// leadingEmptyTxns are transactions whose first address fields are
// empty, so the home actor sits behind them, or nowhere.
func leadingEmptyTxns() []chain.Txn {
	return []chain.Txn{
		&chain.Rewards{Entries: []chain.RewardEntry{{Gateway: "gw-1"}, {Account: "acct-2"}}},
		&chain.Rewards{Entries: []chain.RewardEntry{{}, {}, {Account: "acct-3", Gateway: "gw-3"}}},
		&chain.Rewards{Entries: []chain.RewardEntry{{}, {}}},
		&chain.Rewards{},
		&chain.StateChannelClose{Summaries: []chain.SCSummary{{}, {Hotspot: "hs-2"}}},
		&chain.StateChannelClose{Summaries: []chain.SCSummary{{}}},
		&chain.PoCReceipt{ChallengeeLocation: h3lite.InvalidCell, Witnesses: []chain.WitnessReport{{}, {Witness: "w-2"}}},
		&chain.PoCReceipt{ChallengeeLocation: h3lite.InvalidCell, Challengee: "ce"},
		&chain.ConsensusGroup{Members: []string{"", "", "m-3"}},
		&chain.ConsensusGroup{},
		&chain.AddGateway{Owner: "owner-only", Location: h3lite.InvalidCell},
		&chain.AssertLocation{Owner: "owner-only", Location: h3lite.InvalidCell},
		&chain.TransferHotspot{Buyer: "buyer-only"},
		&chain.TransferHotspot{Seller: "seller", Buyer: "buyer"},
		&chain.Payment{Payee: "payee-only"},
		&chain.TokenBurn{Destination: "dest-only"},
		&chain.StakeValidator{Validator: "validator-only"},
		&chain.PoCRequest{},
		&chain.StateChannelOpen{},
		&chain.OUIRegistration{},
		&chain.RoutingUpdate{},
		&chain.DCCoinbase{},
		&chain.SecurityCoinbase{},
	}
}

// TestRegionOfMatchesFullWalk: homeActor stops at the first non-empty
// address, and RegionOf stays bit-identical to the full-walk
// definition on every transaction of SmallWorld seeds 1-5 and on
// transactions whose leading addresses are empty.
func TestRegionOfMatchesFullWalk(t *testing.T) {
	check := func(where string, tx chain.Txn) {
		if got, want := homeActor(tx), homeActorFullWalk(tx); got != want {
			t.Fatalf("%s (%s): homeActor %q, full walk %q", where, tx.TxnType(), got, want)
		}
		if got, want := RegionOf(tx), regionOfFullWalk(tx); got != want {
			t.Fatalf("%s (%s): RegionOf %d, full walk %d", where, tx.TxnType(), got, want)
		}
	}
	for i, tx := range leadingEmptyTxns() {
		check(fmt.Sprintf("leading-empty txn %d", i), tx)
	}
	for seed := uint64(1); seed <= 5; seed++ {
		res, err := simnet.Generate(simnet.TestConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		rewards := 0
		res.Chain.Scan(func(h int64, tx chain.Txn) bool {
			if tx.TxnType() == chain.TxnRewards {
				rewards++
			}
			check(fmt.Sprintf("seed %d height %d", seed, h), tx)
			return true
		})
		if rewards == 0 {
			t.Fatalf("seed %d: no rewards transactions to check", seed)
		}
	}
}

// bruteRegionCounts counts the blocks' transactions per region with
// RegionOf directly.
func bruteRegionCounts(blocks []*chain.Block) [NumRegions]int64 {
	var rc [NumRegions]int64
	for _, b := range blocks {
		for _, tx := range b.Txns {
			rc[RegionOf(tx)]++
		}
	}
	return rc
}

// TestSegmentRegionCounts: each sealed segment's region summary equals
// a brute-force RegionOf count over its blocks.
func TestSegmentRegionCounts(t *testing.T) {
	res, err := simnet.Generate(simnet.TestConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	s.BulkLoad(res.Chain)
	sealed, _ := s.view()
	if len(sealed) < 2 {
		t.Fatalf("%d sealed segments, want several", len(sealed))
	}
	for _, g := range sealed {
		if got, want := *g.regionCounts(), bruteRegionCounts(g.blocks); got != want {
			t.Fatalf("segment [%d, %d]: summary %v, brute force %v", g.from, g.to, got, want)
		}
	}
}

// TestRegionCountsBuiltOnce: concurrent first queries over a fresh
// store all get the one summary each segment builds (meant to run
// under -race), and their answers equal a brute-force count.
func TestRegionCountsBuiltOnce(t *testing.T) {
	c := worldChain(t, 200)
	s := New(Config{SegmentBlocks: 16})
	s.BulkLoad(c)
	want := bruteRegionCounts(c.Blocks())
	sealed, _ := s.view()

	const readers = 8
	got := make([][]*[NumRegions]int64, readers)
	counts := make([][NumRegions]int64, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < NumRegions; r++ {
				counts[i][r] = s.CountRegion(All(), r)
			}
			for _, g := range sealed {
				got[i] = append(got[i], g.regionCounts())
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < readers; i++ {
		if counts[i] != want {
			t.Fatalf("reader %d: counts %v, want %v", i, counts[i], want)
		}
		for j := range sealed {
			if got[i][j] != got[0][j] {
				t.Fatalf("segment %d: reader %d got a different summary than reader 0 (built twice)", j, i)
			}
		}
	}
}

// TestCountRegionRanges: CountRegion equals a brute-force count for
// every region over ranges that cut segments, cover one block, run
// past the tip, or span the chain, with blocks still pending; and
// regions outside the vocabulary count nothing.
func TestCountRegionRanges(t *testing.T) {
	c := worldChain(t, 200)
	s := New(Config{SegmentBlocks: 16})
	for _, b := range c.Blocks() {
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.PendingBlocks == 0 {
		t.Fatal("no pending blocks; the test wants the buffer scanned too")
	}
	tip := c.Height()
	blocks := c.Blocks()
	for _, r := range []Range{
		All(),
		{From: 0, To: tip},
		{From: 5, To: 40},
		{From: 16, To: 47},
		{From: 17, To: 17},
		{From: tip, To: tip},
		{From: tip - 3, To: tip + 100},
		{From: tip + 1, To: -1},
		{From: 30, To: -1},
	} {
		to := r.To
		if to < 0 {
			to = tip
		}
		var in []*chain.Block
		for _, b := range blocks {
			if b.Height >= r.From && b.Height <= to {
				in = append(in, b)
			}
		}
		want := bruteRegionCounts(in)
		for region := 0; region < NumRegions; region++ {
			if got := s.CountRegion(r, region); got != want[region] {
				t.Fatalf("range %+v region %d: %d, want %d", r, region, got, want[region])
			}
		}
	}
	for _, region := range []int{-1, NumRegions} {
		if got := s.CountRegion(All(), region); got != 0 {
			t.Fatalf("region %d: %d, want 0", region, got)
		}
	}
}

// TestCountRegionOnReopenedStubs: a reopened durable store answers
// region counts on segments no query has loaded yet. The summaries are
// never persisted, so they are rebuilt from the loaded blocks and
// equal the counts the store gave before it was closed.
func TestCountRegionOnReopenedStubs(t *testing.T) {
	s, c, dir := buildDiskStore(t, 60)
	var before [NumRegions]int64
	for r := range before {
		before[r] = s.CountRegion(All(), r)
	}
	if want := bruteRegionCounts(c.Blocks()); before != want {
		t.Fatalf("before close: %v, want %v", before, want)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s, err := Open(dir, Config{SegmentBlocks: 8})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s.Close()
	for _, info := range s.Segments() {
		if info.Loaded {
			t.Fatalf("segment [%d, %d] loaded at open; the test wants stubs", info.FromHeight, info.ToHeight)
		}
	}
	for r := range before {
		if got := s.CountRegion(All(), r); got != before[r] {
			t.Fatalf("reopened region %d: %d, want %d", r, got, before[r])
		}
	}
}
