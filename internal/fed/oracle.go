package fed

import (
	"math"
	"sort"

	"peoplesnet/internal/chain"
	"peoplesnet/internal/etl"
)

// Reference computes the federation-independent answer to q straight
// from the raw chain: no stores, no indexes, no shards — a direct
// walk of the producer's blocks. It is the oracle the correctness
// gates (router property tests, cmd/fedload -verify) compare
// federated results against, deliberately sharing no query-path code
// with the tier it checks beyond the actor and region vocabularies.
func Reference(blocks []*chain.Block, q Query) *Result {
	res := &Result{Strategy: "reference"}
	switch q.Kind {
	case KindMix:
		res.Mix = make(map[chain.TxnType]int64)
	case KindTopActors:
		// counted below
	case KindCount, KindTxns:
		// counted below
	}
	counts := make(map[string]int64)
	var seen []string
	limit := q.pageLimit()

	refScan(blocks, q, func(h int64, seq int32, t chain.Txn) bool {
		switch q.Kind {
		case KindCount:
			res.Count++
		case KindMix:
			res.Mix[t.TxnType()]++
		case KindTopActors:
			seen = seen[:0]
			etl.ActorsOf(t, func(a string) {
				if a == "" {
					return
				}
				for _, prev := range seen {
					if prev == a {
						return
					}
				}
				seen = append(seen, a)
				counts[a]++
			})
		case KindTxns:
			rec := TxnRec{Height: h, Seq: seq, Type: t.TxnType().String(), Hash: chain.Hash(t), Txn: t}
			if rec.cursor().before(q.Cursor) {
				return true
			}
			if len(res.Txns) == limit {
				res.HasMore = true
				last := res.Txns[len(res.Txns)-1].cursor()
				res.Next = Cursor{Height: last.Height, Seq: last.Seq + 1}
				return false
			}
			res.Txns = append(res.Txns, rec)
		}
		return true
	})
	if q.Kind == KindTopActors {
		ranked := rankActors(counts)
		if k := q.topK(); len(ranked) > k {
			ranked = ranked[:k]
		}
		res.TopActors = ranked
	}
	return res
}

// rankActors orders a mention count map by (count desc, actor asc),
// the one total order every ranking surface in the tier shares, so
// truncation at K is deterministic everywhere. The federated merge
// selects under the same order (actorBefore) without sorting.
func rankActors(counts map[string]int64) []ActorCount {
	out := make([]ActorCount, 0, len(counts))
	for a, c := range counts {
		out = append(out, ActorCount{Actor: a, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Actor < out[j].Actor
	})
	return out
}

// refScan visits matching transactions in chain order with their
// intra-block index, applying the range, filter, and region
// restriction by direct inspection.
func refScan(blocks []*chain.Block, q Query, fn func(h int64, seq int32, t chain.Txn) bool) {
	to := q.Range.To
	if to < 0 {
		to = math.MaxInt64
	}
	for _, b := range blocks {
		if b.Height < q.Range.From {
			continue
		}
		if b.Height > to {
			return
		}
		for i, t := range b.Txns {
			if len(q.Filter.Types) > 0 && !typeIn(t.TxnType(), q.Filter.Types) {
				continue
			}
			if len(q.Filter.Actors) > 0 && !mentionsAnyActor(t, q.Filter.Actors) {
				continue
			}
			if !q.matchesRegion(t) {
				continue
			}
			if !fn(b.Height, int32(i), t) {
				return
			}
		}
	}
}

func typeIn(tt chain.TxnType, types []chain.TxnType) bool {
	for _, want := range types {
		if tt == want {
			return true
		}
	}
	return false
}

func mentionsAnyActor(t chain.Txn, actors []string) bool {
	for _, a := range actors {
		if etl.Mentions(t, a) {
			return true
		}
	}
	return false
}
