package fed

import (
	"context"
	"fmt"
	"testing"

	"peoplesnet/internal/chain"
	"peoplesnet/internal/etl"
)

// rewardsChain builds a chain of rewards transactions, one per block,
// from entries lists.
func rewardsChain(t testing.TB, txns [][]chain.RewardEntry) *chain.Chain {
	t.Helper()
	c := chain.NewChain(chain.DefaultGenesis)
	for i, entries := range txns {
		if _, err := c.AppendBlock(int64(i+1), []chain.Txn{&chain.Rewards{Epoch: int64(i), Entries: entries}}); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestTopActorsCountsTxnOnce: an account a rewards transaction names
// thousands of times is one mention of that transaction.
func TestTopActorsCountsTxnOnce(t *testing.T) {
	var txns [][]chain.RewardEntry
	for epoch := 0; epoch < 3; epoch++ {
		var entries []chain.RewardEntry
		for i := 0; i < 3000; i++ {
			entries = append(entries, chain.RewardEntry{
				Account: "whale", Gateway: fmt.Sprintf("gw-%d-%04d", epoch, i),
				AmountBones: 1, Kind: chain.RewardWitness,
			})
		}
		txns = append(txns, entries)
	}
	c := rewardsChain(t, txns)
	q := Query{Kind: KindTopActors, Range: etl.All(), K: 3}
	want := Reference(c.Blocks(), q)
	for _, n := range []int{1, 4} {
		cl := testCluster(t, c, ByRegion(n), Options{CacheSize: -1})
		res, err := cl.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.TopActors) == 0 || res.TopActors[0] != (ActorCount{Actor: "whale", Count: 3}) {
			t.Fatalf("region-%d: top actors %v, want whale counted once per transaction first", n, res.TopActors)
		}
		assertSameResult(t, fmt.Sprintf("region-%d", n), res, want)
	}
}

// TestTopActorsTiesAtK: many actors tie at the K boundary, each one's
// mentions spread over transactions homed on different shards, so the
// tie-break (actor ascending) decides which of them the merge keeps.
// Every layout must rank exactly as the reference does, at every K.
func TestTopActorsTiesAtK(t *testing.T) {
	homes := []string{"home-a", "home-b", "home-c", "home-d", "home-e"}
	var txns [][]chain.RewardEntry
	for i := 0; i < 20; i++ {
		// Descending names, so first-seen order is the reverse of the
		// tie-break order.
		tied := fmt.Sprintf("tied-%02d", 19-i)
		for _, h := range homes {
			txns = append(txns, []chain.RewardEntry{{Account: h, AmountBones: 1}, {Account: tied, AmountBones: 1}})
		}
	}
	// Five lone actors tie with the split ones, each on its own shard.
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			txns = append(txns, []chain.RewardEntry{{Account: fmt.Sprintf("lone-%d", i), AmountBones: 1}})
		}
	}
	// The transactions route by their first account, so the homes
	// must spread over shards for the tied counts to be split.
	shardsOf := map[ShardID]bool{}
	byRegion := ByRegion(4)
	for _, h := range homes {
		for sh := ShardID(0); sh < 4; sh++ {
			if byRegion.CoversRegion(sh, regionOfActor(h)) {
				shardsOf[sh] = true
			}
		}
	}
	if len(shardsOf) < 3 {
		t.Fatalf("homes land on %d of 4 region shards, want at least 3", len(shardsOf))
	}
	c := rewardsChain(t, txns)
	blocks := c.Blocks()
	for name, part := range testPartitions(c.Height()) {
		t.Run(name, func(t *testing.T) {
			cl := testCluster(t, c, part, Options{CacheSize: -1})
			for _, k := range []int{1, 4, 5, 6, 9, 12, 30, 100} {
				q := Query{Kind: KindTopActors, Range: etl.All(), K: k}
				res, err := cl.Query(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				assertSameResult(t, fmt.Sprintf("K=%d", k), res, Reference(blocks, q))
			}
		})
	}
}

// TestTopActorsResultCapped: a top-actors result holds K entries and
// no spare capacity, fresh or replayed from the cache, so the cache
// does not keep a whole ranking alive behind a K-entry view.
func TestTopActorsResultCapped(t *testing.T) {
	c := testChain(t)
	cl := testCluster(t, c, ByRegion(4), Options{})
	q := Query{Kind: KindTopActors, Range: etl.All(), K: 7}
	for _, wantCached := range []bool{false, true} {
		res, err := cl.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached != wantCached {
			t.Fatalf("cached = %v, want %v", res.Cached, wantCached)
		}
		if len(res.TopActors) != q.K || cap(res.TopActors) > q.K {
			t.Errorf("cached=%v: len %d cap %d, want len %d and cap <= %d",
				res.Cached, len(res.TopActors), cap(res.TopActors), q.K, q.K)
		}
	}
}

// walkHashes pages q through cl for up to pages pages, requiring every
// page to equal the reference's and every record's Hash to be the hex
// ID of its transaction. It returns the records walked.
func walkHashes(t *testing.T, cl *Cluster, blocks []*chain.Block, q Query, pages int) []TxnRec {
	t.Helper()
	var walked []TxnRec
	for page := 0; page < pages; page++ {
		res, err := cl.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Missing) > 0 {
			t.Fatalf("page %d: shards %v missing", page, res.Missing)
		}
		if len(res.Txns) == 0 {
			t.Fatalf("page %d is empty", page)
		}
		assertSameResult(t, fmt.Sprintf("page %d", page), res, Reference(blocks, q))
		for i, rec := range res.Txns {
			if want := chain.Hash(rec.Txn); rec.Hash != want {
				t.Fatalf("page %d txn %d: hash %q, want %q", page, i, rec.Hash, want)
			}
		}
		walked = append(walked, res.Txns...)
		if !res.HasMore {
			break
		}
		q.Cursor = res.Next
	}
	return walked
}

// rewardsHeavyActor returns the account the most rewards transactions
// name: its history is mostly rewards records, each the ID of a
// transaction hundreds of entries long.
func rewardsHeavyActor(c *chain.Chain) string {
	counts := map[string]int{}
	best := ""
	c.ScanType(chain.TxnRewards, func(_ int64, t chain.Txn) bool {
		seen := map[string]bool{}
		for _, e := range t.(*chain.Rewards).Entries {
			if e.Account == "" || seen[e.Account] {
				continue
			}
			seen[e.Account] = true
			if counts[e.Account]++; counts[e.Account] > counts[best] ||
				(counts[e.Account] == counts[best] && e.Account < best) {
				best = e.Account
			}
		}
		return true
	})
	return best
}

// TestMergedTxnHashes: shards ship the IDs the upstream chain kept,
// and the merge formats every record on the page as the hex ID of its
// transaction, on every page of a walk. Covered: a window listing, an
// actor history that is mostly rewards records, and a durable cluster
// after a kill, whose restarted shards serve blocks they decoded from
// disk (fresh pointers, their seq maps rebuilt from the source).
func TestMergedTxnHashes(t *testing.T) {
	c := testChain(t)
	blocks := c.Blocks()
	window := Query{Kind: KindTxns, Range: etl.Range{From: c.Height() / 2, To: -1}, Limit: 50}
	actor := rewardsHeavyActor(c)
	history := Query{Kind: KindTxns, Range: etl.All(), Filter: etl.Filter{Actors: []string{actor}}, Limit: 50}

	t.Run("window", func(t *testing.T) {
		cl := testCluster(t, c, ByRegion(4), Options{CacheSize: -1})
		walkHashes(t, cl, blocks, window, 5)
	})
	t.Run("rewards-actor", func(t *testing.T) {
		cl := testCluster(t, c, ByRegion(4), Options{CacheSize: -1})
		recs := walkHashes(t, cl, blocks, history, 3)
		rewards := 0
		for _, rec := range recs {
			if rec.Type == chain.TxnRewards.String() {
				rewards++
			}
		}
		if 2*rewards <= len(recs) {
			t.Fatalf("actor %s: %d of %d records are rewards, want most", actor, rewards, len(recs))
		}
	})
	t.Run("durable-after-kill", func(t *testing.T) {
		h := newChaosHarness(t, 4, 0x1d5, false)
		cl := FollowChain(c, ByRegion(4), h.options())
		defer cl.Close()
		cl.Supervise(fastSupervision())
		chaosWait(t, cl, c.Height())
		// Kill every shard, so every record comes off a restarted one.
		var before []*Node
		for id := range cl.slots {
			before = append(before, cl.slots[id].current())
			if err := cl.Kill(ShardID(id)); err != nil {
				t.Fatal(err)
			}
		}
		chaosWait(t, cl, c.Height())
		for id, sl := range cl.slots {
			if n := sl.current(); n == nil || n == before[id] {
				t.Fatalf("shard %d was not restarted", id)
			}
		}
		walkHashes(t, cl, blocks, window, 5)
		walkHashes(t, cl, blocks, history, 3)
	})
}

// TestSelectTopK checks the heap selection against a full sort on
// tallies with heavy ties, for every K up to past the tally's length.
func TestSelectTopK(t *testing.T) {
	var tally []ActorCount
	counts := map[string]int64{}
	for i := 0; i < 60; i++ {
		a := fmt.Sprintf("a%02d", (i*37)%60)
		tally = append(tally, ActorCount{Actor: a, Count: int64(i % 4)})
		counts[a] = int64(i % 4)
	}
	full := rankActors(counts)
	for k := 1; k <= len(tally)+2; k++ {
		got := selectTopK(tally, k)
		want := full[:min(k, len(full))]
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d entries, want %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("k=%d: entry %d = %+v, want %+v", k, i, got[i], want[i])
			}
		}
	}
	if got := selectTopK(nil, 10); got == nil || len(got) != 0 {
		t.Errorf("empty tally: %#v, want an empty non-nil ranking", got)
	}
}
