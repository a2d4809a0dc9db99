package fed

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"peoplesnet/internal/chain"
	"peoplesnet/internal/etl"
)

// countingShard is a stubShard that counts fan-out arrivals, so tests
// can prove a cache hit never reached the shards.
type countingShard struct {
	p     Partial
	calls atomic.Int64
}

func (s *countingShard) Info() ShardInfo { return ShardInfo{ID: s.p.Shard, Tip: s.p.Tip} }

func (s *countingShard) Query(context.Context, Query) (*Partial, error) {
	s.calls.Add(1)
	p := s.p
	return &p, nil
}

// TestRouterResultCache: the second identical query at the same tip
// is answered from the cache (no shard fan-out, Cached set), and a
// tip advance invalidates every entry.
func TestRouterResultCache(t *testing.T) {
	tip := atomic.Int64{}
	tip.Store(99)
	a := &countingShard{p: Partial{Shard: 0, Tip: 99, Count: 10}}
	b := &countingShard{p: Partial{Shard: 1, Tip: 99, Count: 3}}
	part := ByRegion(2)
	rt := NewRouter(part, []Shard{a, b}, Options{}, tip.Load)

	q := Query{Kind: KindCount, Range: etl.All()}
	res, err := rt.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Fatal("first query reported Cached")
	}
	if res.Count != 13 {
		t.Fatalf("count %d, want 13", res.Count)
	}
	if got := a.calls.Load() + b.calls.Load(); got != 2 {
		t.Fatalf("first query reached %d shards, want 2", got)
	}

	res2, err := rt.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Cached {
		t.Fatal("second identical query at the same tip missed the cache")
	}
	if res2.Count != 13 || res2.Strategy != res.Strategy {
		t.Fatalf("cached result diverged: %+v vs %+v", res2, res)
	}
	if got := a.calls.Load() + b.calls.Load(); got != 2 {
		t.Fatalf("cache hit still fanned out (shard calls %d, want 2)", got)
	}
	st := rt.CacheStats()
	if !st.Enabled || st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("cache stats = %+v, want enabled with 1 hit / 1 miss / 1 entry", st)
	}

	// Tip advance: the same fingerprint must miss and refan.
	tip.Store(100)
	res3, err := rt.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Cached {
		t.Fatal("query after tip advance served a stale cached answer")
	}
	if got := a.calls.Load() + b.calls.Load(); got != 4 {
		t.Fatalf("post-advance query reached %d shard calls, want 4", got)
	}
	if st := rt.CacheStats(); st.Misses != 2 || st.Tip != 100 {
		t.Fatalf("cache stats after advance = %+v, want 2 misses at tip 100", st)
	}
}

// TestRouterCacheSkipsDegraded: results with missing or stale shards
// are never admitted, so a recovered shard is consulted next time.
func TestRouterCacheSkipsDegraded(t *testing.T) {
	part := ByRegion(2)
	fresh := &countingShard{p: Partial{Shard: 0, Tip: 99, Count: 10}}
	lagged := &countingShard{p: Partial{Shard: 1, Tip: 40, Count: 3}}
	rt := NewRouter(part, []Shard{fresh, lagged}, Options{LagBudget: 8}, func() int64 { return 99 })

	q := Query{Kind: KindCount, Range: etl.All()}
	res, err := rt.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stale) == 0 {
		t.Fatal("expected a stale shard in the setup result")
	}
	res, err = rt.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Fatal("degraded (stale-shard) result was replayed from cache")
	}
	if st := rt.CacheStats(); st.Entries != 0 {
		t.Fatalf("cache holds %d entries, want 0 after degraded-only queries", st.Entries)
	}
}

// TestRouterCacheDisabled: negative CacheSize turns the cache off, and
// a router without a source-tip probe never engages it.
func TestRouterCacheDisabled(t *testing.T) {
	part := ByRegion(1)
	sh := &countingShard{p: Partial{Shard: 0, Tip: 99, Count: 5}}
	rt := NewRouter(part, []Shard{sh}, Options{CacheSize: -1}, func() int64 { return 99 })
	for i := 0; i < 2; i++ {
		res, err := rt.Query(context.Background(), Query{Kind: KindCount, Range: etl.All()})
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached {
			t.Fatal("disabled cache served a hit")
		}
	}
	if sh.calls.Load() != 2 {
		t.Fatalf("disabled cache absorbed fan-out: %d shard calls, want 2", sh.calls.Load())
	}
	if st := rt.CacheStats(); st.Enabled {
		t.Fatalf("CacheStats = %+v, want disabled", st)
	}

	noTip := NewRouter(part, []Shard{sh}, Options{}, nil)
	if st := noTip.CacheStats(); st.Enabled {
		t.Fatal("router without a source-tip probe enabled its cache")
	}
}

// TestCacheKeyNormalization: filter field order and defaulted knobs do
// not split entries, while semantically different queries never
// collide.
func TestCacheKeyNormalization(t *testing.T) {
	base := Query{Kind: KindCount, Range: etl.All(),
		Filter: etl.Filter{Types: []chain.TxnType{chain.TxnPayment, chain.TxnRewards}, Actors: []string{"b", "a"}}}
	reordered := base
	reordered.Filter = etl.Filter{Types: []chain.TxnType{chain.TxnRewards, chain.TxnPayment}, Actors: []string{"a", "b"}}
	if cacheKey(base) != cacheKey(reordered) {
		t.Fatalf("filter order split the key:\n%s\n%s", cacheKey(base), cacheKey(reordered))
	}

	if cacheKey(Query{Kind: KindTopActors, Range: etl.All()}) !=
		cacheKey(Query{Kind: KindTopActors, Range: etl.All(), K: defaultTopK}) {
		t.Fatal("explicit default K split the key")
	}
	if cacheKey(Query{Kind: KindTxns, Range: etl.All()}) !=
		cacheKey(Query{Kind: KindTxns, Range: etl.All(), Limit: defaultPageLimit}) {
		t.Fatal("explicit default Limit split the key")
	}

	distinct := []Query{
		{Kind: KindCount, Range: etl.All()},
		{Kind: KindMix, Range: etl.All()},
		{Kind: KindCount, Range: etl.Range{From: 1, To: -1}},
		{Kind: KindCount, Range: etl.All(), Filter: etl.Filter{Types: []chain.TxnType{chain.TxnPayment}}},
		{Kind: KindCount, Range: etl.All(), Filter: etl.Filter{Actors: []string{"a"}}},
		{Kind: KindCount, Range: etl.All(), HasRegion: true, Region: 0},
		{Kind: KindCount, Range: etl.All(), HasRegion: true, Region: 1},
		{Kind: KindTxns, Range: etl.All(), Cursor: Cursor{Height: 5, Seq: 1}},
		{Kind: KindTxns, Range: etl.All(), Limit: 7},
		{Kind: KindTopActors, Range: etl.All(), K: 3},
	}
	seen := map[string]int{}
	for i, q := range distinct {
		k := cacheKey(q)
		if j, dup := seen[k]; dup {
			t.Fatalf("queries %d and %d collide on key %s", j, i, k)
		}
		seen[k] = i
	}
}

// flakyShard delegates until failed, then errors on every query —
// the serve-stale outage model.
type flakyShard struct {
	inner Shard
	fail  atomic.Bool
}

func (s *flakyShard) Info() ShardInfo { return s.inner.Info() }

func (s *flakyShard) Query(ctx context.Context, q Query) (*Partial, error) {
	if s.fail.Load() {
		return nil, errors.New("shard down")
	}
	return s.inner.Query(ctx, q)
}

// TestRouterServeStaleOnOutage: with a TTL set, a complete cached
// answer from an older tip is served — flagged Cached + ServedStale,
// down shards reported in Stale — when planned shards are
// unavailable, on both the below-quorum and the degraded-but-quorate
// paths.
func TestRouterServeStaleOnOutage(t *testing.T) {
	for _, quorum := range []float64{1, 0.5} {
		tip := atomic.Int64{}
		tip.Store(99)
		a := &countingShard{p: Partial{Shard: 0, Tip: 99, Count: 10}}
		b := &flakyShard{inner: &countingShard{p: Partial{Shard: 1, Tip: 99, Count: 3}}}
		part := ByRegion(2)
		rt := NewRouter(part, []Shard{a, b}, Options{Quorum: quorum, CacheTTL: time.Minute}, tip.Load)

		q := Query{Kind: KindCount, Range: etl.All()}
		if _, err := rt.Query(context.Background(), q); err != nil {
			t.Fatal(err)
		}

		// Outage plus a tip advance: the fresh path misses, the fan-out
		// loses shard 1, and the cached complete answer steps in.
		b.fail.Store(true)
		tip.Store(100)
		res, err := rt.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("quorum %.1f: outage query failed instead of serving stale: %v", quorum, err)
		}
		if !res.Cached || !res.ServedStale {
			t.Fatalf("quorum %.1f: flags = cached %v stale-served %v, want both", quorum, res.Cached, res.ServedStale)
		}
		if res.Count != 13 {
			t.Fatalf("quorum %.1f: stale count %d, want the cached 13", quorum, res.Count)
		}
		if len(res.Missing) != 0 || len(res.Gaps) != 0 {
			t.Fatalf("quorum %.1f: served-stale result still degraded: missing=%v gaps=%v", quorum, res.Missing, res.Gaps)
		}
		if len(res.Stale) != 1 || res.Stale[0] != (ShardLag{Shard: 1, Tip: 99, Behind: 1}) {
			t.Fatalf("quorum %.1f: stale = %+v, want shard 1 at cached tip 99", quorum, res.Stale)
		}
		if st := rt.CacheStats(); st.StaleHits != 1 {
			t.Fatalf("quorum %.1f: stale hits = %d, want 1", quorum, st.StaleHits)
		}

		// Recovery: the next query at the live tip fans out normally and
		// is fresh again.
		b.fail.Store(false)
		res, err = rt.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached || res.ServedStale {
			t.Fatalf("quorum %.1f: recovered query still flagged cached=%v stale=%v", quorum, res.Cached, res.ServedStale)
		}
	}
}

// TestRouterServeStaleRespectsTTL: an expired entry is never served
// during an outage, and with TTL zero (the default) the serve-stale
// path does not exist at all.
func TestRouterServeStaleRespectsTTL(t *testing.T) {
	build := func(ttl time.Duration, tip *atomic.Int64) (*Router, *flakyShard) {
		a := &countingShard{p: Partial{Shard: 0, Tip: 99, Count: 10}}
		b := &flakyShard{inner: &countingShard{p: Partial{Shard: 1, Tip: 99, Count: 3}}}
		return NewRouter(ByRegion(2), []Shard{a, b}, Options{CacheTTL: ttl}, tip.Load), b
	}

	// Expired entry: the outage query fails quorum rather than serving
	// an answer past its TTL.
	tip := atomic.Int64{}
	tip.Store(99)
	rt, b := build(5*time.Millisecond, &tip)
	q := Query{Kind: KindCount, Range: etl.All()}
	if _, err := rt.Query(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	time.Sleep(15 * time.Millisecond)
	b.fail.Store(true)
	tip.Store(100)
	if _, err := rt.Query(context.Background(), q); err == nil {
		t.Fatal("outage query served a result past its TTL")
	}

	// TTL zero: original semantics — tip advance flushes, outage fails.
	tip2 := atomic.Int64{}
	tip2.Store(99)
	rt2, b2 := build(0, &tip2)
	if _, err := rt2.Query(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	b2.fail.Store(true)
	tip2.Store(100)
	if _, err := rt2.Query(context.Background(), q); err == nil {
		t.Fatal("TTL-zero cache served stale during an outage")
	}
}

// TestCacheTTLExpiresFreshHits: even same-tip lookups miss once the
// entry ages past the TTL.
func TestCacheTTLExpiresFreshHits(t *testing.T) {
	c := newResultCache(2, 5*time.Millisecond)
	c.put("a", 9, &Result{Count: 1})
	if c.get("a", 9) == nil {
		t.Fatal("entry missing inside its TTL")
	}
	time.Sleep(15 * time.Millisecond)
	if c.get("a", 9) != nil {
		t.Fatal("expired entry served as a fresh hit")
	}
	if st := c.stats(); st.Entries != 0 {
		t.Fatalf("expired entry still resident: %+v", st)
	}
}

// TestCacheLRUEviction: the oldest untouched entry leaves first.
func TestCacheLRUEviction(t *testing.T) {
	c := newResultCache(2, 0)
	r := &Result{Count: 1}
	c.put("a", 9, r)
	c.put("b", 9, r)
	if c.get("a", 9) == nil { // refresh "a"; "b" is now oldest
		t.Fatal("entry a missing before eviction")
	}
	c.put("c", 9, r)
	if c.get("b", 9) != nil {
		t.Fatal("LRU kept b, the least recently used entry")
	}
	if c.get("a", 9) == nil || c.get("c", 9) == nil {
		t.Fatal("LRU evicted a survivor")
	}
	if st := c.stats(); st.Entries != 2 {
		t.Fatalf("entries = %d, want 2 at capacity", st.Entries)
	}
}
