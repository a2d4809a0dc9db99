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

// countRegionQueries is the region-count corpus: every region over
// ranges that start and end mid-segment, cover one block, run past the
// tip, or cover the whole chain, answered from segment summaries; plus
// region counts with a type filter, which take the scan path.
func countRegionQueries(c *chain.Chain) []Query {
	blocks := c.Blocks()
	tip := c.Height()
	at := func(i int) int64 { return blocks[i].Height }
	n := len(blocks)
	ranges := []etl.Range{
		etl.All(),
		{From: 0, To: tip},
		{From: at(n / 10), To: at(n/2 + 7)},
		{From: at(n / 3), To: at(n / 3)},
		{From: at(n - 5), To: tip + 100},
		{From: tip + 1, To: -1},
	}
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

// checkCountRegion runs the corpus against the cluster and requires
// every answer to equal the reference, with no shard missing.
func checkCountRegion(t *testing.T, cl *Cluster, qs []Query, want []*Result) {
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
			t.Fatalf("query %d (region %d, range %+v, types %v): count %d, want %d",
				i, q.Region, q.Range, q.Filter.Types, res.Count, want[i].Count)
		}
	}
}

// TestCountRegionSummaries: region counts answered from per-segment
// summaries equal the reference on every shard layout, on durable
// shards with a non-empty pending buffer, after the durable stores are
// reopened, and after a shard is killed and restarted by its
// supervisor.
func TestCountRegionSummaries(t *testing.T) {
	c := testChain(t)
	blocks := c.Blocks()
	qs := countRegionQueries(c)
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

	for name, part := range testPartitions(c.Height()) {
		t.Run(name, func(t *testing.T) {
			cl := testCluster(t, c, part, Options{CacheSize: -1})
			checkCountRegion(t, cl, qs, want)
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
		checkCountRegion(t, cl, qs, want)
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
		checkCountRegion(t, cl, qs, want)
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
		checkCountRegion(t, cl, qs, want)
	})
}
