package fed

import (
	"context"
	"fmt"
	"slices"

	"peoplesnet/internal/chain"
	"peoplesnet/internal/etl"
)

// Shard answers queries for one partition slice. The in-process
// implementation wraps a node slot; tests wrap Shards to inject
// latency and failure.
type Shard interface {
	Info() ShardInfo
	Query(ctx context.Context, q Query) (*Partial, error)
}

// localShard answers from a slot's current node in-process. The node
// is resolved per query, so a supervised restart swaps incarnations
// under the router without rewiring anything.
type localShard struct{ sl *nodeSlot }

func (s *localShard) Info() ShardInfo {
	n := s.sl.current()
	if n == nil {
		return ShardInfo{ID: s.sl.id, Err: s.sl.downErr().Error()}
	}
	return n.Info()
}

// ctxCheckStride is how many visited transactions pass between
// context checks during a scan — frequent enough that a per-shard
// timeout actually interrupts a long scan, rare enough to stay off
// the per-txn fast path.
const ctxCheckStride = 1024

func (s *localShard) Query(ctx context.Context, q Query) (*Partial, error) {
	n := s.sl.current()
	if n == nil {
		// Down shards fail fast — no timeout is burned waiting on them,
		// the router degrades them to Missing/Gaps immediately.
		return nil, s.sl.downErr()
	}
	if err := n.Err(); err != nil {
		return nil, err
	}
	p := &Partial{Shard: n.id, Tip: n.store.Height()}
	var err error
	switch q.Kind {
	case KindCount:
		err = count(ctx, n, q, p)
	case KindMix:
		err = mix(ctx, n, q, p)
	case KindTopActors:
		err = topActors(ctx, n, q, p)
	case KindTxns:
		err = txns(ctx, n, q, p)
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

// scan visits matching transactions in chain order, honoring the
// query's region restriction and checking ctx every ctxCheckStride
// transactions. fn returning false stops the scan early (not an
// error).
func scan(ctx context.Context, n *Node, q Query, fn func(h int64, t chain.Txn) bool) error {
	var visited int
	var err error
	n.store.Scan(q.Range, q.Filter, func(h int64, t chain.Txn) bool {
		if visited++; visited%ctxCheckStride == 0 {
			if err = ctx.Err(); err != nil {
				return false
			}
		}
		if !q.matchesRegion(t) {
			return true
		}
		return fn(h, t)
	})
	return err
}

// coversStore reports the query's range covers the shard's entire
// store.
func coversStore(n *Node, q Query) bool {
	first, tip := n.store.FirstHeight(), n.store.Height()
	if first < 0 {
		return false
	}
	return q.Range.From <= first && (q.Range.To < 0 || q.Range.To >= tip)
}

// wholeStore reports the query covers the shard's entire store with
// no filter, so materialized aggregates answer in O(1)/O(types)
// without a scan.
func wholeStore(n *Node, q Query) bool {
	if q.HasRegion || len(q.Filter.Types) > 0 || len(q.Filter.Actors) > 0 {
		return false
	}
	return coversStore(n, q)
}

func count(ctx context.Context, n *Node, q Query, p *Partial) error {
	noActors := len(q.Filter.Actors) == 0
	typed := len(q.Filter.Types) > 0
	switch {
	case wholeStore(n, q):
		p.Count = n.store.TxnCount()
	case noActors && q.HasRegion && !typed:
		// Sealed segments answer from their region summaries.
		p.Count = n.store.CountRegion(q.Range, q.Region)
	case noActors && !q.HasRegion && typed && coversStore(n, q):
		// The store's type mix answers.
		p.Count = sumTypes(n.store.TxnMix(), q.Filter.Types)
	default:
		return scan(ctx, n, q, func(int64, chain.Txn) bool {
			p.Count++
			return true
		})
	}
	return nil
}

// sumTypes sums a type mix over the distinct types listed.
func sumTypes(mix map[chain.TxnType]int64, types []chain.TxnType) int64 {
	var n int64
	for i, tt := range types {
		if !slices.Contains(types[:i], tt) {
			n += mix[tt]
		}
	}
	return n
}

func mix(ctx context.Context, n *Node, q Query, p *Partial) error {
	if wholeStore(n, q) {
		p.Mix = n.store.TxnMix()
		return nil
	}
	p.Mix = make(map[chain.TxnType]int64)
	return scan(ctx, n, q, func(_ int64, t chain.Txn) bool {
		p.Mix[t.TxnType()]++
		return true
	})
}

// topActors tallies, per actor, the matching transactions that
// mention it: one map lookup per mention, and a per-actor stamp (the
// number of the last transaction that counted it) in place of a
// per-transaction seen-set, so a rewards transaction naming thousands
// of accounts costs linear time. The tally is left unordered; the
// merge selects the top K.
func topActors(ctx context.Context, n *Node, q Query, p *Partial) error {
	idx := make(map[string]int) // actor → index into p.Actors and last
	var last []int              // per actor: stamp of the txn that last counted it
	stamp := 0
	tally := func(a string) {
		if a == "" {
			return
		}
		i, ok := idx[a]
		if !ok {
			i = len(p.Actors)
			idx[a] = i
			p.Actors = append(p.Actors, ActorCount{Actor: a})
			last = append(last, 0)
		}
		if last[i] == stamp {
			return
		}
		last[i] = stamp
		p.Actors[i].Count++
	}
	return scan(ctx, n, q, func(_ int64, t chain.Txn) bool {
		stamp++
		etl.ActorsOf(t, tally)
		return true
	})
}

// txns pages the shard's matching transactions in chain order. Each
// record carries its upstream coordinates (height, seq) and the ID
// the upstream chain kept for it, read from the upstream block once
// per distinct height on the page; the merge turns IDs into hex only
// for the records that make the merged page. A record whose seq or
// ID cannot be recovered fails the query, so the router reports the
// shard missing rather than list it at a wrong position.
func txns(ctx context.Context, n *Node, q Query, p *Partial) error {
	limit := q.pageLimit()
	r := q.Range
	if q.Cursor.Height > r.From {
		// Resume scanning at the cursor block, not the range start.
		r.From = q.Cursor.Height
	}
	qr := q
	qr.Range = r
	var up *chain.Block // upstream block of the last listed record
	var ferr error
	err := scan(ctx, n, qr, func(h int64, t chain.Txn) bool {
		seq, err := n.seqOf(h, t)
		if err != nil {
			ferr = err
			return false
		}
		rec := TxnRec{Height: h, Seq: seq, Type: t.TxnType().String(), Txn: t}
		if rec.cursor().before(q.Cursor) {
			return true
		}
		if len(p.Txns) == limit {
			p.More = true
			return false
		}
		if up == nil || up.Height != h {
			up = n.src.BlockAt(h)
		}
		if up == nil || int(seq) >= len(up.Txns) {
			ferr = fmt.Errorf("fed: shard %d: no upstream transaction at (%d, %d)", n.id, h, seq)
			return false
		}
		rec.id = up.TxnHash(int(seq))
		p.Txns = append(p.Txns, rec)
		return true
	})
	if err != nil {
		return err
	}
	return ferr
}
