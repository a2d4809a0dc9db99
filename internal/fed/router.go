package fed

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"peoplesnet/internal/etl"
)

// Router plans federated queries against a partition, fans them out
// to shards in parallel, and merges the partials with the kind's
// strategy.
type Router struct {
	part   Partition
	shards []Shard // indexed by ShardID
	opts   Options
	// sourceTip reports the producer's tip for lag accounting; nil
	// falls back to the highest tip any answering shard reported.
	sourceTip func() int64
	// cache replays complete merged answers keyed by (query
	// fingerprint, source tip); nil when disabled or when no sourceTip
	// is available to key entries against.
	cache *resultCache
}

// NewRouter builds a router over shards (indexed by ShardID, one per
// partition slice).
func NewRouter(part Partition, shards []Shard, opts Options, sourceTip func() int64) *Router {
	if len(shards) != part.NumShards() {
		panic(fmt.Sprintf("fed: %d shards for a %d-shard partition", len(shards), part.NumShards()))
	}
	rt := &Router{part: part, shards: shards, opts: opts, sourceTip: sourceTip}
	// The cache keys entries by source tip, so it needs a cheap tip
	// probe; without one (sourceTip nil) it stays off.
	if size := opts.cacheSize(); size > 0 && sourceTip != nil {
		rt.cache = newResultCache(size, opts.CacheTTL)
	}
	return rt
}

// CacheStats reports the result cache's hit/miss counters; the zero
// value (Enabled false) when the cache is disabled.
func (rt *Router) CacheStats() CacheStats {
	if rt.cache == nil {
		return CacheStats{}
	}
	return rt.cache.stats()
}

// Plan selects the shards whose partition slice can contain answers:
// the routing-precision step. Every shard spans every height, so a
// region-restricted query plans the one shard owning the region and
// any other query plans them all.
func (rt *Router) Plan(q Query) []ShardID {
	var planned []ShardID
	for id := range rt.shards {
		sh := ShardID(id)
		if q.HasRegion && !rt.part.CoversRegion(sh, q.Region) {
			continue
		}
		planned = append(planned, sh)
	}
	return planned
}

// Query runs one federated query: plan, parallel fan-out with
// per-shard timeouts, quorum check, then strategy merge. Shards that
// fail or time out degrade to Result.Missing + Result.Gaps as long as
// the quorum holds; answering shards beyond the lag budget are
// flagged in Result.Stale, never awaited.
func (rt *Router) Query(ctx context.Context, q Query) (*Result, error) {
	start := time.Now()
	var key string
	if rt.cache != nil {
		key = cacheKey(q)
		if hit := rt.cache.get(key, rt.sourceTip()); hit != nil {
			// Shallow copy so the caller's view carries its own Cached
			// flag and Elapsed without touching the stored entry.
			cp := *hit
			cp.Cached = true
			cp.Elapsed = time.Since(start)
			return &cp, nil
		}
	}
	planned := rt.Plan(q)
	res := &Result{Planned: planned}

	type reply struct {
		id  ShardID
		p   *Partial
		err error
	}
	replies := make(chan reply, len(planned))
	for _, id := range planned {
		go func(id ShardID) {
			qctx := ctx
			if rt.opts.PerShardTimeout > 0 {
				var cancel context.CancelFunc
				qctx, cancel = context.WithTimeout(ctx, rt.opts.PerShardTimeout)
				defer cancel()
			}
			p, err := rt.shards[id].Query(qctx, q)
			replies <- reply{id: id, p: p, err: err}
		}(id)
	}

	var parts []*Partial
	for range planned {
		r := <-replies
		if r.err != nil {
			res.Missing = append(res.Missing, r.id)
			continue
		}
		parts = append(parts, r.p)
	}
	// Deterministic merge order regardless of arrival order.
	sort.Slice(parts, func(i, j int) bool { return parts[i].Shard < parts[j].Shard })
	sort.Slice(res.Missing, func(i, j int) bool { return res.Missing[i] < res.Missing[j] })

	srcTip := int64(-1)
	if rt.sourceTip != nil {
		srcTip = rt.sourceTip()
	} else {
		for _, p := range parts {
			if p.Tip > srcTip {
				srcTip = p.Tip
			}
		}
	}

	if quo := rt.opts.quorum(); len(planned) > 0 && float64(len(parts)) < quo*float64(len(planned)) {
		if st := rt.serveStale(key, res.Missing, srcTip, start); st != nil {
			return st, nil
		}
		return nil, fmt.Errorf("fed: %d/%d shards answered, below quorum %.2f", len(parts), len(planned), quo)
	}
	if len(res.Missing) > 0 {
		// Shards are down (crashed, breaker open, timed out) but quorum
		// holds. A complete answer from an older tip, if one is still
		// within its TTL, beats degrading to gaps.
		if st := rt.serveStale(key, res.Missing, srcTip, start); st != nil {
			return st, nil
		}
	}
	res.Gaps = gapsFor(q, res.Missing)
	for _, p := range parts {
		if behind := srcTip - p.Tip; behind > rt.opts.LagBudget {
			res.Stale = append(res.Stale, ShardLag{Shard: p.Shard, Tip: p.Tip, Behind: behind})
		}
	}

	st := StrategyFor(q.Kind)
	res.Strategy = st.Name()
	st.Merge(q, parts, res)
	for _, p := range parts {
		if contributed(q.Kind, p) {
			res.Contributing++
		}
	}
	res.Elapsed = time.Since(start)
	if rt.cache != nil && len(res.Missing) == 0 && len(res.Stale) == 0 {
		// Only complete answers are cacheable: a result with gaps or
		// stale shards should be recomputed next time, not replayed.
		// Keyed at the tip observed during this query — if the source
		// advanced mid-flight the entry lands under the fresh tip and
		// the next lookup still matches.
		cp := *res
		rt.cache.put(key, srcTip, &cp)
	}
	return res, nil
}

// serveStale tries the outage fallback: a complete cached answer for
// the same query computed at an older tip, still within the cache
// TTL. The copy is flagged Cached + ServedStale, and the down shards
// are reported in Stale at the entry's tip — the caller sees exactly
// how old its answer is and who was unavailable.
func (rt *Router) serveStale(key string, down []ShardID, srcTip int64, start time.Time) *Result {
	if rt.cache == nil {
		return nil
	}
	hit, asOf, ok := rt.cache.stale(key)
	if !ok {
		return nil
	}
	cp := *hit
	cp.Cached = true
	cp.ServedStale = true
	cp.Stale = make([]ShardLag, 0, len(down))
	for _, id := range down {
		cp.Stale = append(cp.Stale, ShardLag{Shard: id, Tip: asOf, Behind: srcTip - asOf})
	}
	cp.Elapsed = time.Since(start)
	return &cp
}

// gapsFor converts missing shards into the height interval of the
// query they leave unanswered. A region shard spans every height, so
// one missing shard can hide answers anywhere in the query range: the
// gap is that range clipped at 0, To -1 when it is open-ended
// (etl's gap convention).
func gapsFor(q Query, missing []ShardID) []etl.Gap {
	if len(missing) == 0 {
		return nil
	}
	g := etl.Gap{From: max(q.Range.From, 0), To: q.Range.To}
	if g.To < 0 || g.To == math.MaxInt64 {
		g.To = -1
	} else if g.From > g.To {
		return nil
	}
	return []etl.Gap{g}
}

// contributed reports whether a shard's partial holds any answers —
// the numerator of routing precision.
func contributed(k Kind, p *Partial) bool {
	switch k {
	case KindCount:
		return p.Count > 0
	case KindMix:
		return len(p.Mix) > 0
	case KindTopActors:
		return len(p.Actors) > 0
	case KindTxns:
		return len(p.Txns) > 0
	}
	return false
}
