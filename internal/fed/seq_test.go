package fed

import (
	"context"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"peoplesnet/internal/chain"
	"peoplesnet/internal/etl"
)

// holeSource hides one upstream height from BlockAt while armed, as a
// producer that lost or pruned a block would.
type holeSource struct {
	Source
	hole *atomic.Int64 // the hidden height; -1 hides none
}

func (s holeSource) BlockAt(height int64) *chain.Block {
	if height == s.hole.Load() {
		return nil
	}
	return s.Source.BlockAt(height)
}

// TestSeqUnrecoverableDegrades: a restarted durable shard that cannot
// recover a record's upstream position (the upstream block is gone)
// fails its part of the query, and the router reports it Missing. The
// answer is degraded, never a record at a made-up seq 0.
func TestSeqUnrecoverableDegrades(t *testing.T) {
	c := testChain(t)
	blocks := c.Blocks()
	part := ByRegion(2)
	onShard0 := func(t chain.Txn) bool { return part.Owns(RegionOf(t)) == 0 }
	// The hidden height: a block holding a shard-0 transaction at a
	// nonzero seq.
	var hole *chain.Block
	for _, b := range blocks {
		if len(b.Txns) > 1 && slices.ContainsFunc(b.Txns[1:], onShard0) {
			hole = b
			break
		}
	}
	if hole == nil {
		t.Fatal("no multi-transaction block on shard 0")
	}

	var hidden atomic.Int64
	hidden.Store(-1)
	h := newChaosHarness(t, 2, 0x5e9, false)
	opts := h.options()
	opts.Quorum = 0.5
	opts.WrapSource = func(id ShardID, src Source) Source {
		return holeSource{Source: h.wrap(id, src), hole: &hidden}
	}
	cl := FollowChain(c, part, opts)
	defer cl.Close()
	cl.Supervise(fastSupervision())
	chaosWait(t, cl, c.Height())
	if err := cl.Kill(0); err != nil {
		t.Fatal(err)
	}
	chaosWait(t, cl, c.Height())

	// Shard 1 owns the other regions and still answers, so the quorum
	// holds.
	q := Query{Kind: KindTxns, Range: etl.Range{From: hole.Height, To: -1}, Limit: 1 << 20}
	hidden.Store(hole.Height)
	res, err := cl.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Missing) != 1 || res.Missing[0] != 0 || len(res.Gaps) == 0 {
		t.Fatalf("missing %v, gaps %v: want shard 0 missing with its gap reported", res.Missing, res.Gaps)
	}
	for _, rec := range res.Txns {
		if onShard0(rec.Txn) {
			t.Fatalf("degraded answer lists (%d, %d) from the failed shard", rec.Height, rec.Seq)
		}
	}

	// With the block back, the same shard answers in full.
	hidden.Store(-1)
	res, err = cl.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Missing) > 0 {
		t.Fatalf("missing %v after the block came back", res.Missing)
	}
	assertSameResult(t, "healed", res, Reference(blocks, q))
}

// TestTxnIDsWhileAppending: shards read upstream blocks, kept IDs
// included, while the producer appends. Every page listed mid-replay
// names each record by its upstream block's transaction at (height,
// seq) and by that transaction's ID. Meant to run under -race (make
// fed-smoke).
func TestTxnIDsWhileAppending(t *testing.T) {
	src := testChain(t)
	blocks := src.Blocks()
	live := chain.NewChain(src.Genesis)
	cl := FollowChain(live, ByRegion(4), Options{CacheSize: -1})
	defer cl.Close()

	done := make(chan error, 1)
	go func() {
		for _, b := range blocks {
			if _, err := live.AppendBlock(b.Height, b.Txns); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	check := func(res *Result) {
		t.Helper()
		for _, rec := range res.Txns {
			up := live.BlockAt(rec.Height)
			if up == nil || int(rec.Seq) >= len(up.Txns) || up.Txns[rec.Seq] != rec.Txn {
				t.Fatalf("record (%d, %d) is not its upstream block's transaction", rec.Height, rec.Seq)
			}
			if want := chain.Hash(rec.Txn); rec.Hash != want {
				t.Fatalf("record (%d, %d): hash %s, want %s", rec.Height, rec.Seq, rec.Hash, want)
			}
		}
	}
	q := Query{Kind: KindTxns, Range: etl.All(), Limit: 64}
	pages := 0
	for replaying := true; replaying; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			replaying = false
		default:
		}
		q.Range.From = max(0, live.Height()-200)
		res, err := cl.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		check(res)
		pages++
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := cl.WaitHeight(ctx, live.Height()); err != nil {
		t.Fatal(err)
	}
	q.Range.From = 0
	res, err := cl.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	check(res)
	assertSameResult(t, "at tip", res, Reference(live.Blocks(), q))
	t.Logf("%d pages listed during the replay", pages)
}
