package fed

import (
	"context"
	"fmt"
	"testing"
	"time"

	"peoplesnet/internal/chain"
	"peoplesnet/internal/etl"
)

// benchCluster shares caught-up clusters across benchmark iterations.
func benchCluster(b *testing.B, c *chain.Chain, part Partition, opts Options) *Cluster {
	b.Helper()
	cl := FollowChain(c, part, opts)
	b.Cleanup(func() { cl.Close() })
	if err := cl.WaitHeight(context.Background(), c.Height()); err != nil {
		b.Fatal(err)
	}
	return cl
}

func benchQuery(b *testing.B, cl *Cluster, q Query) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Query(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

// The whole-chain benchmarks below run with the result cache off, as
// BenchmarkFedTopActors_Day does: with it on, every iteration after
// the first is a cache hit and the shard kernels go untimed.

func BenchmarkFedCountFull(b *testing.B) {
	c := testChain(b)
	for _, n := range []int{1, 2, 4, 8} {
		cl := benchCluster(b, c, ByRegion(n), Options{CacheSize: -1})
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			benchQuery(b, cl, Query{Kind: KindCount, Range: etl.All(), Filter: etl.Filter{Types: []chain.TxnType{chain.TxnPoCReceipt}}})
		})
	}
}

func BenchmarkFedTxnsPage(b *testing.B) {
	c := testChain(b)
	for _, n := range []int{1, 2, 4, 8} {
		cl := benchCluster(b, c, ByRegion(n), Options{CacheSize: -1})
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			benchQuery(b, cl, Query{Kind: KindTxns, Range: etl.All(), Limit: 100})
		})
	}
}

func BenchmarkFedTopActors(b *testing.B) {
	c := testChain(b)
	for _, n := range []int{1, 2, 4, 8} {
		cl := benchCluster(b, c, ByRegion(n), Options{CacheSize: -1})
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			benchQuery(b, cl, Query{Kind: KindTopActors, Range: etl.All(), K: 10})
		})
	}
}

// BenchmarkFedTopActors_Day ranks one day's actors on four region
// shards with the result cache off, so every iteration runs the shard
// tallies and the merge. The day holds rewards transactions, each
// paying many accounts.
func BenchmarkFedTopActors_Day(b *testing.B) {
	c := testChain(b)
	tip := c.Height()
	rewards := 0
	c.Scan(func(h int64, t chain.Txn) bool {
		if h > tip-chain.BlocksPerDay && t.TxnType() == chain.TxnRewards {
			rewards++
		}
		return true
	})
	if rewards == 0 {
		b.Fatal("the benchmark day holds no rewards transactions")
	}
	cl := benchCluster(b, c, ByRegion(4), Options{CacheSize: -1})
	benchQuery(b, cl, Query{Kind: KindTopActors, Range: etl.Range{From: tip - chain.BlocksPerDay + 1, To: tip}, K: 10})
}

// BenchmarkFedActorTxns lists the first page of one actor's history on
// four region shards with the result cache off. The busiest actor
// fills its page from the first segments it reaches; a rare actor's
// page stays short, so the scan reaches every rewards transaction of
// every shard and tests each for membership.
func BenchmarkFedActorTxns(b *testing.B) {
	c := testChain(b)
	n := map[string]int{}
	c.Scan(func(_ int64, t chain.Txn) bool {
		seen := map[string]bool{}
		etl.ActorsOf(t, func(a string) {
			if a != "" && !seen[a] {
				seen[a] = true
				n[a]++
			}
		})
		return true
	})
	busiest, rare := "", ""
	for a, k := range n {
		if busiest == "" || k > n[busiest] || (k == n[busiest] && a < busiest) {
			busiest = a
		}
		if rare == "" || k < n[rare] || (k == n[rare] && a < rare) {
			rare = a
		}
	}
	cl := benchCluster(b, c, ByRegion(4), Options{CacheSize: -1})
	page := func(actor string) Query {
		return Query{Kind: KindTxns, Range: etl.All(), Limit: 100, Filter: etl.Filter{Actors: []string{actor}}}
	}
	// Reach every segment once untimed, so the timed loops measure
	// queries, not the stores' one-time index set-up.
	if _, err := cl.Query(context.Background(), page(rare)); err != nil {
		b.Fatal(err)
	}
	for _, a := range []struct{ name, actor string }{{"busiest", busiest}, {"rare", rare}} {
		b.Run(a.name, func(b *testing.B) { benchQuery(b, cl, page(a.actor)) })
	}
}

// BenchmarkFedCountRegion counts the busiest region's transactions
// over the whole chain on four region shards with the result cache
// off, so every iteration reaches the shard. One untimed query first
// builds the segments' region summaries.
func BenchmarkFedCountRegion(b *testing.B) {
	c := testChain(b)
	cl := benchCluster(b, c, ByRegion(4), Options{CacheSize: -1})
	q := Query{Kind: KindCount, Range: etl.All(), HasRegion: true, Region: busiestRegion(c)}
	if _, err := cl.Query(context.Background(), q); err != nil {
		b.Fatal(err)
	}
	benchQuery(b, cl, q)
}

// BenchmarkFollowerMTTR measures a durable supervised shard's time to
// recover on two region shards: one iteration kills shard 0 and waits
// until WaitHeight reaches the tip again. resume restarts over the
// shard's directory, reading its sealed segments and WAL tail and
// re-tailing only what is missing; cold wipes the directory first, so
// the restarted shard re-ingests the chain from genesis.
func BenchmarkFollowerMTTR(b *testing.B) {
	c := testChain(b)
	for _, mode := range []string{"resume", "cold"} {
		b.Run(mode, func(b *testing.B) {
			h := newChaosHarness(b, 2, 0x3771, false)
			opts := h.options()
			if mode == "cold" {
				open := opts.ShardStore
				opts.ShardStore = func(id ShardID) (string, etl.Config) {
					dir, cfg := open(id)
					if err := wipeStoreDir(cfg, dir); err != nil {
						b.Error(err)
					}
					return dir, cfg
				}
			}
			cl := FollowChain(c, ByRegion(2), opts)
			defer cl.Close()
			cl.Supervise(fastSupervision())
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
			defer cancel()
			if err := cl.WaitHeight(ctx, c.Height()); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cl.Kill(0); err != nil {
					b.Fatal(err)
				}
				if err := cl.WaitHeight(ctx, c.Height()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
