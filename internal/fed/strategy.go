package fed

import (
	"peoplesnet/internal/chain"
	"peoplesnet/internal/stats"
)

// Strategy merges per-shard partials into the federated result. The
// router hands it partials sorted by shard ID, so a deterministic
// strategy yields a deterministic result. Because the partition tiles
// transactions exactly (each txn on exactly one shard), every stock
// strategy is exact, not approximate.
type Strategy interface {
	Name() string
	Merge(q Query, parts []*Partial, res *Result)
}

var strategies = map[Kind]Strategy{
	KindCount:     sumStrategy{},
	KindMix:       mixMergeStrategy{},
	KindTopActors: topKMergeStrategy{},
	KindTxns:      kwayMergeStrategy{},
}

// StrategyFor returns the strategy for a kind.
func StrategyFor(k Kind) Strategy {
	return strategies[k]
}

// sumStrategy adds shard counts.
type sumStrategy struct{}

func (sumStrategy) Name() string { return "sum" }

func (sumStrategy) Merge(_ Query, parts []*Partial, res *Result) {
	for _, p := range parts {
		res.Count += p.Count
	}
}

// mixMergeStrategy adds per-type counts.
type mixMergeStrategy struct{}

func (mixMergeStrategy) Name() string { return "mix-merge" }

func (mixMergeStrategy) Merge(_ Query, parts []*Partial, res *Result) {
	res.Mix = make(map[chain.TxnType]int64)
	for _, p := range parts {
		for tt, c := range p.Mix {
			res.Mix[tt] += c
		}
	}
}

// topKMergeStrategy sums complete per-shard tallies and selects the
// exact top K. Shards ship full tallies (Partial.Actors), which is
// what makes this an exact merge rather than the lossy
// union-of-local-top-k heuristic: an actor scattered thinly across
// shards still totals correctly. Selection keeps a K-entry heap, so
// n distinct actors cost O(n log K) with no sort of the whole tally,
// and the result is a fresh slice of at most K entries.
type topKMergeStrategy struct{}

func (topKMergeStrategy) Name() string { return "topk-merge" }

func (topKMergeStrategy) Merge(q Query, parts []*Partial, res *Result) {
	res.TopActors = selectTopK(sumTallies(parts), q.topK())
}

// sumTallies adds the shards' tallies into one, in first-seen order
// (shard by shard).
func sumTallies(parts []*Partial) []ActorCount {
	size := 0
	for _, p := range parts {
		size = max(size, len(p.Actors))
	}
	idx := make(map[string]int, size)
	acc := make([]ActorCount, 0, size)
	for _, p := range parts {
		for _, ac := range p.Actors {
			if i, ok := idx[ac.Actor]; ok {
				acc[i].Count += ac.Count
				continue
			}
			idx[ac.Actor] = len(acc)
			acc = append(acc, ac)
		}
	}
	return acc
}

// actorBefore is the ranking order: count desc, then actor asc.
func actorBefore(a, b ActorCount) bool {
	if a.Count != b.Count {
		return a.Count > b.Count
	}
	return a.Actor < b.Actor
}

// selectTopK returns the k best of tally in ranking order.
func selectTopK(tally []ActorCount, k int) []ActorCount {
	top := stats.NewTopK(min(k, len(tally)), actorBefore)
	for _, ac := range tally {
		top.Offer(ac)
	}
	return top.Sorted()
}

// kwayMergeStrategy merges per-shard chain-ordered pages by (height,
// seq) into one page. Each shard fetched up to the same page limit,
// so the merged page's records are all <= any truncated shard's last
// key — a truncated shard can never be hiding a record that belonged
// on this page, which makes cursor pagination gap-free.
type kwayMergeStrategy struct{}

func (kwayMergeStrategy) Name() string { return "kway-merge" }

func (kwayMergeStrategy) Merge(q Query, parts []*Partial, res *Result) {
	limit := q.pageLimit()
	idx := make([]int, len(parts))
	leftover := func() bool {
		for i, p := range parts {
			if idx[i] < len(p.Txns) || p.More {
				return true
			}
		}
		return false
	}
	for len(res.Txns) < limit {
		best := -1
		for i, p := range parts {
			if idx[i] >= len(p.Txns) {
				continue
			}
			if best < 0 || p.Txns[idx[i]].cursor().before(parts[best].Txns[idx[best]].cursor()) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		// Shards ship raw IDs; only the records on the merged page pay
		// for the hex.
		rec := parts[best].Txns[idx[best]]
		rec.Hash = rec.id.String()
		res.Txns = append(res.Txns, rec)
		idx[best]++
	}
	if leftover() {
		res.HasMore = true
		last := res.Txns[len(res.Txns)-1].cursor()
		res.Next = Cursor{Height: last.Height, Seq: last.Seq + 1}
	}
}
