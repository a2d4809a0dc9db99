package fed

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"peoplesnet/internal/chain"
	"peoplesnet/internal/etl"
	"peoplesnet/internal/simnet"
)

var (
	worldOnce  sync.Once
	worldChain *chain.Chain
	worldErr   error
)

// testChain generates one scaled-down world per test binary.
func testChain(t testing.TB) *chain.Chain {
	t.Helper()
	worldOnce.Do(func() {
		cfg := simnet.TestConfig(7)
		cfg.Days = 200
		cfg.TargetHotspots = 300
		res, err := simnet.Generate(cfg)
		if err != nil {
			worldErr = err
			return
		}
		worldChain = res.Chain
	})
	if worldErr != nil {
		t.Fatal(worldErr)
	}
	return worldChain
}

// testCluster builds a cluster over c and waits until every shard has
// ingested the current tip.
func testCluster(t testing.TB, c *chain.Chain, part Partition, opts Options) *Cluster {
	t.Helper()
	cl := FollowChain(c, part, opts)
	t.Cleanup(func() {
		if err := cl.Close(); err != nil {
			t.Errorf("cluster close: %v", err)
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := cl.WaitHeight(ctx, c.Height()); err != nil {
		t.Fatalf("cluster catch-up: %v", err)
	}
	return cl
}

// sampleActors picks well-known addresses off the chain so actor
// filters hit real posting lists.
func sampleActors(c *chain.Chain, n int) []string {
	var actors []string
	seen := map[string]bool{}
	c.Scan(func(_ int64, t chain.Txn) bool {
		etl.ActorsOf(t, func(a string) {
			if a != "" && !seen[a] && len(actors) < n {
				seen[a] = true
				actors = append(actors, a)
			}
		})
		return len(actors) < n
	})
	return actors
}

// busiestRegion returns the routing region with the most txns, so
// region-scoped queries in the matrix are never trivially empty.
func busiestRegion(c *chain.Chain) int {
	counts := make([]int64, NumRegions)
	c.Scan(func(_ int64, t chain.Txn) bool {
		counts[RegionOf(t)]++
		return true
	})
	best := 0
	for r, n := range counts {
		if n > counts[best] {
			best = r
		}
	}
	return best
}

// queryMatrix is the property-test corpus: every kind, crossed with
// full/partial ranges, type and actor filters, and region scoping.
func queryMatrix(c *chain.Chain) []Query {
	tip := c.Height()
	actors := sampleActors(c, 3)
	region := busiestRegion(c)
	return []Query{
		{Kind: KindCount, Range: etl.All()},
		{Kind: KindMix, Range: etl.All()},
		{Kind: KindCount, Range: etl.Range{From: tip / 4, To: tip / 2}},
		{Kind: KindMix, Range: etl.Range{From: tip / 3, To: -1}},
		{Kind: KindCount, Range: etl.All(), Filter: etl.Filter{Types: []chain.TxnType{chain.TxnPoCReceipt}}},
		{Kind: KindMix, Range: etl.Range{From: 0, To: tip * 3 / 4}, Filter: etl.Filter{Types: []chain.TxnType{chain.TxnPayment, chain.TxnRewards}}},
		{Kind: KindCount, Range: etl.All(), Filter: etl.Filter{Actors: actors[:1]}},
		{Kind: KindCount, Range: etl.Range{From: tip / 5, To: -1}, Filter: etl.Filter{Types: []chain.TxnType{chain.TxnAssertLocation}, Actors: actors}},
		{Kind: KindTxns, Range: etl.All(), Limit: 64},
		{Kind: KindTxns, Range: etl.Range{From: tip / 3, To: 2 * tip / 3}, Filter: etl.Filter{Types: []chain.TxnType{chain.TxnAddGateway, chain.TxnAssertLocation}}, Limit: 32},
		{Kind: KindTxns, Range: etl.All(), Filter: etl.Filter{Actors: actors[1:2]}, Limit: 16},
		{Kind: KindTopActors, Range: etl.All(), K: 12},
		{Kind: KindTopActors, Range: etl.Range{From: 0, To: tip / 2}, Filter: etl.Filter{Types: []chain.TxnType{chain.TxnPoCReceipt}}, K: 8},
		{Kind: KindCount, Range: etl.All(), HasRegion: true, Region: region},
		{Kind: KindMix, Range: etl.Range{From: tip / 6, To: -1}, HasRegion: true, Region: region},
		{Kind: KindTxns, Range: etl.All(), HasRegion: true, Region: region, Limit: 50},
		{Kind: KindTopActors, Range: etl.All(), HasRegion: true, Region: region, K: 10},
		// Height-scoped narrow window.
		{Kind: KindCount, Range: etl.Range{From: tip - tip/8, To: -1}},
		{Kind: KindTxns, Range: etl.Range{From: tip - tip/8, To: -1}, Limit: 40},
		// Empty answer: a range beyond the tip.
		{Kind: KindCount, Range: etl.Range{From: tip + 100, To: tip + 200}},
	}
}

// testPartitions is the shard-layout corpus of the property test.
func testPartitions() map[string]Partition {
	parts := map[string]Partition{}
	for _, n := range []int{1, 2, 4, 8} {
		parts[fmt.Sprintf("region-%d", n)] = ByRegion(n)
	}
	// More shards than regions: shards 24+ own nothing at all.
	parts["region-30-empty-shards"] = ByRegion(30)
	return parts
}

func assertSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Count != want.Count {
		t.Errorf("%s: count %d, want %d", label, got.Count, want.Count)
	}
	if len(got.Mix) != len(want.Mix) {
		t.Errorf("%s: mix has %d types, want %d", label, len(got.Mix), len(want.Mix))
	}
	for tt, n := range want.Mix {
		if got.Mix[tt] != n {
			t.Errorf("%s: mix[%s] = %d, want %d", label, tt, got.Mix[tt], n)
		}
	}
	if len(got.TopActors) != len(want.TopActors) {
		t.Fatalf("%s: %d top actors, want %d", label, len(got.TopActors), len(want.TopActors))
	}
	for i, ac := range want.TopActors {
		if got.TopActors[i] != ac {
			t.Errorf("%s: top actor %d = %+v, want %+v", label, i, got.TopActors[i], ac)
		}
	}
	if len(got.Txns) != len(want.Txns) {
		t.Fatalf("%s: %d txns, want %d", label, len(got.Txns), len(want.Txns))
	}
	for i, rec := range want.Txns {
		g := got.Txns[i]
		if g.Height != rec.Height || g.Seq != rec.Seq || g.Hash != rec.Hash || g.Type != rec.Type {
			t.Errorf("%s: txn %d = (%d,%d,%s,%s), want (%d,%d,%s,%s)",
				label, i, g.Height, g.Seq, g.Type, g.Hash, rec.Height, rec.Seq, rec.Type, rec.Hash)
		}
	}
	if got.HasMore != want.HasMore {
		t.Errorf("%s: has_more %v, want %v", label, got.HasMore, want.HasMore)
	}
	if want.HasMore && got.Next != want.Next {
		t.Errorf("%s: next cursor %v, want %v", label, got.Next, want.Next)
	}
}

// TestFederatedBitIdentical is the core correctness property:
// federated answers are bit-identical to the raw-chain reference for
// every strategy under every shard layout, including layouts with
// entirely empty shards.
func TestFederatedBitIdentical(t *testing.T) {
	c := testChain(t)
	blocks := c.Blocks()
	matrix := queryMatrix(c)
	for name, part := range testPartitions() {
		t.Run(name, func(t *testing.T) {
			cl := testCluster(t, c, part, Options{})
			for i, q := range matrix {
				res, err := cl.Query(context.Background(), q)
				if err != nil {
					t.Fatalf("query %d (%s): %v", i, q.Kind, err)
				}
				if len(res.Missing) > 0 || len(res.Gaps) > 0 {
					t.Fatalf("query %d (%s): unexpected missing=%v gaps=%v", i, q.Kind, res.Missing, res.Gaps)
				}
				assertSameResult(t, fmt.Sprintf("query %d (%s)", i, q.Kind), res, Reference(blocks, q))
			}
		})
	}
}

// TestFederationSmoke is the make-check matrix: 4 in-process region
// shards, full query matrix, meant to run under -race.
func TestFederationSmoke(t *testing.T) {
	c := testChain(t)
	blocks := c.Blocks()
	matrix := queryMatrix(c)
	t.Run("region", func(t *testing.T) {
		cl := testCluster(t, c, ByRegion(4), Options{PerShardTimeout: time.Minute})
		for i, q := range matrix {
			res, err := cl.Query(context.Background(), q)
			if err != nil {
				t.Fatalf("query %d (%s): %v", i, q.Kind, err)
			}
			assertSameResult(t, fmt.Sprintf("query %d (%s)", i, q.Kind), res, Reference(blocks, q))
		}
	})
}

// TestFederatedPaginationWalk pages through the full listing with a
// small page size and checks the concatenation is the entire
// single-store listing, in order, with no duplicates or holes.
func TestFederatedPaginationWalk(t *testing.T) {
	c := testChain(t)
	blocks := c.Blocks()
	want := Reference(blocks, Query{Kind: KindTxns, Range: etl.All(), Filter: etl.Filter{Types: []chain.TxnType{chain.TxnPoCReceipt, chain.TxnPayment}}, Limit: 1 << 30})
	t.Run("region", func(t *testing.T) {
		cl := testCluster(t, c, ByRegion(4), Options{})
		var walked []TxnRec
		q := Query{Kind: KindTxns, Range: etl.All(), Filter: etl.Filter{Types: []chain.TxnType{chain.TxnPoCReceipt, chain.TxnPayment}}, Limit: 37}
		for pages := 0; ; pages++ {
			if pages > len(want.Txns)/37+2 {
				t.Fatal("pagination never terminated")
			}
			res, err := cl.Query(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			walked = append(walked, res.Txns...)
			if !res.HasMore {
				break
			}
			q.Cursor = res.Next
		}
		if len(walked) != len(want.Txns) {
			t.Fatalf("walked %d txns, want %d", len(walked), len(want.Txns))
		}
		for i, rec := range want.Txns {
			if walked[i].Height != rec.Height || walked[i].Seq != rec.Seq || walked[i].Hash != rec.Hash {
				t.Fatalf("walked txn %d = (%d,%d,%s), want (%d,%d,%s)",
					i, walked[i].Height, walked[i].Seq, walked[i].Hash, rec.Height, rec.Seq, rec.Hash)
			}
		}
	})
}

// slowShard delays every query long enough to trip the per-shard
// timeout.
type slowShard struct {
	Shard
	delay time.Duration
}

func (s slowShard) Query(ctx context.Context, q Query) (*Partial, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-time.After(s.delay):
	}
	return s.Shard.Query(ctx, q)
}

// TestGapReportingAndQuorum: a shard that misses its timeout degrades
// to a reported gap when the quorum allows, and fails the query when
// it does not.
func TestGapReportingAndQuorum(t *testing.T) {
	c := testChain(t)
	blocks := c.Blocks()
	tip := c.Height()
	part := ByRegion(4)
	cl := testCluster(t, c, part, Options{})

	shards := make([]Shard, len(cl.router.shards))
	copy(shards, cl.router.shards)
	shards[1] = slowShard{Shard: shards[1], delay: time.Minute}

	q := Query{Kind: KindCount, Range: etl.All()}
	want := Reference(blocks, q)

	// Quorum 0.5: three of four shards answering is a degraded
	// success. A region shard spans every height, so its gap is the
	// whole query range.
	rt := NewRouter(part, shards, Options{PerShardTimeout: 20 * time.Millisecond, Quorum: 0.5}, c.Height)
	res, err := rt.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Missing) != 1 || res.Missing[0] != 1 {
		t.Fatalf("missing = %v, want [1]", res.Missing)
	}
	if len(res.Gaps) != 1 || res.Gaps[0] != (etl.Gap{From: 0, To: -1}) {
		t.Fatalf("gaps = %v, want exactly [0, -1]", res.Gaps)
	}
	// The answered shards' counts must equal reference minus the
	// missing shard's regions.
	var missingRegions int64
	for r := 0; r < NumRegions; r++ {
		if part.Owns(r) == 1 {
			missingRegions += Reference(blocks, Query{Kind: KindCount, Range: etl.All(), HasRegion: true, Region: r}).Count
		}
	}
	if res.Count != want.Count-missingRegions {
		t.Fatalf("degraded count %d, want %d", res.Count, want.Count-missingRegions)
	}
	// A bounded range is reported as itself, a range reaching below
	// genesis is clipped at 0.
	for _, r := range []etl.Range{{From: tip / 4, To: tip / 2}, {From: -5, To: tip / 2}} {
		res, err := rt.Query(context.Background(), Query{Kind: KindCount, Range: r})
		if err != nil {
			t.Fatal(err)
		}
		if g := (etl.Gap{From: max(r.From, 0), To: r.To}); len(res.Gaps) != 1 || res.Gaps[0] != g {
			t.Fatalf("range %+v: gaps = %v, want [%+v]", r, res.Gaps, g)
		}
	}

	// A region-scoped query that doesn't plan the slow shard is
	// unaffected: gaps only ever cover planned shards.
	narrow := Query{Kind: KindCount, Range: etl.All(), HasRegion: true, Region: 2}
	res, err = rt.Query(context.Background(), narrow)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Missing) != 0 || len(res.Gaps) != 0 {
		t.Fatalf("narrow query hit the slow shard: missing=%v gaps=%v", res.Missing, res.Gaps)
	}
	assertSameResult(t, "narrow", res, Reference(blocks, narrow))

	// Full quorum: the same timeout now fails the query.
	strict := NewRouter(part, shards, Options{PerShardTimeout: 20 * time.Millisecond, Quorum: 1}, c.Height)
	if _, err := strict.Query(context.Background(), q); err == nil {
		t.Fatal("want quorum failure, got success")
	}
}

// stubShard returns a canned partial, for router-level staleness
// accounting.
type stubShard struct{ p Partial }

func (s stubShard) Info() ShardInfo                                { return ShardInfo{ID: s.p.Shard, Tip: s.p.Tip} }
func (s stubShard) Query(context.Context, Query) (*Partial, error) { p := s.p; return &p, nil }

// TestStaleShardSurfaced: a shard answering from a store beyond the
// lag budget is flagged in Result.Stale, not awaited and not dropped.
func TestStaleShardSurfaced(t *testing.T) {
	part := ByRegion(2)
	fresh := stubShard{p: Partial{Shard: 0, Tip: 99, Count: 10}}
	stale := stubShard{p: Partial{Shard: 1, Tip: 40, Count: 3}}
	rt := NewRouter(part, []Shard{fresh, stale}, Options{LagBudget: 8}, func() int64 { return 99 })
	res, err := rt.Query(context.Background(), Query{Kind: KindCount, Range: etl.All()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 13 {
		t.Fatalf("count %d, want 13", res.Count)
	}
	if len(res.Stale) != 1 || res.Stale[0] != (ShardLag{Shard: 1, Tip: 40, Behind: 59}) {
		t.Fatalf("stale = %+v, want shard 1 behind 59", res.Stale)
	}
	// Within budget: nothing flagged.
	rt = NewRouter(part, []Shard{fresh, stale}, Options{LagBudget: 60}, func() int64 { return 99 })
	if res, _ = rt.Query(context.Background(), Query{Kind: KindCount, Range: etl.All()}); len(res.Stale) != 0 {
		t.Fatalf("stale = %+v, want none within budget", res.Stale)
	}
}

// TestRoutingPrecision: a region-scoped query plans only the shard
// owning the region, and that shard contributes.
func TestRoutingPrecision(t *testing.T) {
	c := testChain(t)
	rcl := testCluster(t, c, ByRegion(4), Options{})
	rq := Query{Kind: KindCount, Range: etl.All(), HasRegion: true, Region: busiestRegion(c)}
	if planned := rcl.Plan(rq); len(planned) != 1 {
		t.Fatalf("region-scoped query planned %v shards, want exactly 1 of 4", planned)
	}
	res, err := rcl.Query(context.Background(), rq)
	if err != nil {
		t.Fatal(err)
	}
	if p := res.Precision(); p != 1 {
		t.Fatalf("region-scoped precision %.2f, want 1", p)
	}
}

// TestLiveFollow replays the world into a fresh chain while a cluster
// follows it live, then checks post-catch-up queries match the
// reference.
func TestLiveFollow(t *testing.T) {
	src := testChain(t)
	live := chain.NewChain(src.Genesis)
	cl := FollowChain(live, ByRegion(3), Options{})
	defer cl.Close()

	for _, b := range src.Blocks() {
		if _, err := live.AppendBlock(b.Height, b.Txns); err != nil {
			t.Fatalf("replay height %d: %v", b.Height, err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := cl.WaitHeight(ctx, live.Height()); err != nil {
		t.Fatal(err)
	}

	q := Query{Kind: KindMix, Range: etl.All()}
	res, err := cl.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "live mix", res, Reference(live.Blocks(), q))
}

// TestShardInfoLag: cluster shard snapshots report lag relative to
// the source tip.
func TestShardInfoLag(t *testing.T) {
	c := testChain(t)
	cl := testCluster(t, c, ByRegion(4), Options{})
	infos := cl.Shards()
	if len(infos) != 4 {
		t.Fatalf("%d shard infos, want 4", len(infos))
	}
	var txns int64
	for _, info := range infos {
		if info.Lag != 0 {
			t.Fatalf("caught-up shard %d reports lag %d", info.ID, info.Lag)
		}
		if info.Tip != c.Height() {
			t.Fatalf("shard %d tip %d, want %d", info.ID, info.Tip, c.Height())
		}
		if info.Err != "" {
			t.Fatalf("shard %d error: %s", info.ID, info.Err)
		}
		txns += info.Txns
	}
	if want := c.TxnCount(); txns != want {
		t.Fatalf("shards hold %d txns total, want %d (exact tiling)", txns, want)
	}
}

// TestCursorRoundTrip pins the wire form of cursors.
func TestCursorRoundTrip(t *testing.T) {
	for _, c := range []Cursor{{}, {Height: 42, Seq: 7}, {Height: 1 << 40, Seq: 2147483647}} {
		got, err := ParseCursor(c.String())
		if err != nil {
			t.Fatal(err)
		}
		if got != c {
			t.Fatalf("round trip %v -> %v", c, got)
		}
	}
	if _, err := ParseCursor("nonsense"); err == nil {
		t.Fatal("want error for bad cursor")
	}
}
