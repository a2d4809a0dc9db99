package etl

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"peoplesnet/internal/chain"
)

// pos addresses one transaction inside a segment: block index, txn
// index, plus the transaction's type so filters can reject a posting
// without loading the block. Posting lists are sorted by (blk, txn),
// which is chain order; at rest they live delta+varint-compressed
// (postings.go) and pos is the decoded currency scans consume.
type pos struct {
	blk, txn int32
	tt       chain.TxnType
}

// segment is an immutable run of consecutive blocks plus its secondary
// indexes. Once sealed nothing in it changes, so readers never lock.
//
// A durable store opens lazily: Open creates one stub per segment file
// (only from/to, parsed from the file name) and the first access
// materializes the rest through load(). Built-in-memory segments
// (seal, repair) have lazy == nil and are always materialized.
type segment struct {
	from, to int64 // block heights (inclusive); known without loading

	// lazy is the on-demand load state; nil means the fields below are
	// valid. After load() returns true they are valid and immutable.
	lazy *lazyState

	blocks  []*chain.Block
	txns    int64
	mix     map[chain.TxnType]int64
	byType  map[chain.TxnType]*postings
	byActor map[string]*postings
	// shared holds the segment's rewards transactions, whose actor
	// fan-out is suppressed. PaperWorld(7)'s 659 rewards hold 389,446
	// entries naming 480,201 distinct (rewards, address) pairs; a
	// posting per pair would add 1.4 MB of encoded postings and about
	// 10 MB of heap to every store holding the chain, and change the
	// sidecar. Actor queries merge the list in and keep the rewards
	// whose members name a queried actor.
	shared *postings
	// members is the membership index of each rewards transaction on
	// shared, in list order. The first actor scan that reaches the
	// list builds it (membersOnce); it is immutable after, so readers
	// never lock, and it is never persisted.
	membersOnce sync.Once
	members     []rewardMembers
	// agg is the segment's aggregate contribution, decoded from the
	// sidecar (or rebuilt) at load; nil for in-memory segments, whose
	// transactions were observed at append time.
	agg *segAgg
	// aggFolded marks the segment's contribution as merged into the
	// store-wide aggregates. Guarded by the store's mu.
	aggFolded bool
}

// lazyState tracks a stub segment's materialization.
type lazyState struct {
	d    *durable
	name string // segment file name
	once sync.Once
	// done/failed are set (in that order) when the load completes;
	// failed stubs stay in the segment list serving nothing until
	// Repair sweeps them into gaps.
	done   atomic.Bool
	failed bool // valid once done is true
}

// load materializes a stub segment, returning whether its blocks and
// indexes are usable. It is safe to call concurrently and from under
// the store's mu (it never takes store locks); the winner does the
// file I/O, everyone else waits on the Once.
func (g *segment) load() bool {
	if g.lazy == nil {
		return true
	}
	g.lazy.once.Do(func() {
		g.lazy.failed = !g.lazy.d.loadLazy(g)
		g.lazy.done.Store(true)
	})
	return !g.lazy.failed
}

// loaded reports whether the segment is materialized (successfully or
// not) without forcing a load.
func (g *segment) loaded() bool { return g.lazy == nil || g.lazy.done.Load() }

// broken reports whether a load was attempted and failed, without
// forcing one.
func (g *segment) broken() bool {
	return g.lazy != nil && g.lazy.done.Load() && g.lazy.failed
}

func buildSegment(blocks []*chain.Block) *segment {
	g := &segment{
		blocks:  blocks,
		from:    blocks[0].Height,
		to:      blocks[len(blocks)-1].Height,
		mix:     make(map[chain.TxnType]int64),
		byType:  make(map[chain.TxnType]*postings),
		byActor: make(map[string]*postings),
		shared:  &postings{typed: true},
	}
	var seen []string // per-txn dedupe scratch
	for bi, b := range blocks {
		for ti, t := range b.Txns {
			tt := t.TxnType()
			bi32, ti32 := int32(bi), int32(ti)
			g.txns++
			g.mix[tt]++
			tp := g.byType[tt]
			if tp == nil {
				tp = &postings{}
				g.byType[tt] = tp
			}
			tp.add(bi32, ti32, tt)
			if tt == chain.TxnRewards {
				g.shared.add(bi32, ti32, tt)
				continue
			}
			seen = seen[:0]
			actorsOf(t, func(a string) {
				if a == "" {
					return
				}
				for _, prev := range seen {
					if prev == a {
						return
					}
				}
				seen = append(seen, a)
				ap := g.byActor[a]
				if ap == nil {
					ap = &postings{typed: true}
					g.byActor[a] = ap
				}
				ap.add(bi32, ti32, tt)
			})
		}
	}
	return g
}

func (g *segment) overlaps(from, to int64) bool {
	return g.to >= from && g.from <= to
}

// actorsOf emits every address a transaction mentions — the actors
// whose timelines it belongs on.
func actorsOf(t chain.Txn, emit func(string)) {
	switch v := t.(type) {
	case *chain.AddGateway:
		emit(v.Gateway)
		emit(v.Owner)
	case *chain.AssertLocation:
		emit(v.Gateway)
		emit(v.Owner)
	case *chain.TransferHotspot:
		emit(v.Gateway)
		emit(v.Seller)
		emit(v.Buyer)
	case *chain.PoCRequest:
		emit(v.Challenger)
	case *chain.PoCReceipt:
		emit(v.Challenger)
		emit(v.Challengee)
		for i := range v.Witnesses {
			emit(v.Witnesses[i].Witness)
		}
	case *chain.StateChannelOpen:
		emit(v.Owner)
	case *chain.StateChannelClose:
		emit(v.Owner)
		for i := range v.Summaries {
			emit(v.Summaries[i].Hotspot)
		}
	case *chain.Payment:
		emit(v.Payer)
		emit(v.Payee)
	case *chain.TokenBurn:
		emit(v.Payer)
		emit(v.Destination)
	case *chain.OUIRegistration:
		emit(v.Owner)
	case *chain.Rewards:
		for i := range v.Entries {
			emit(v.Entries[i].Account)
			emit(v.Entries[i].Gateway)
		}
	case *chain.ConsensusGroup:
		for _, m := range v.Members {
			emit(m)
		}
	case *chain.RoutingUpdate:
		emit(v.Owner)
	case *chain.StakeValidator:
		emit(v.Owner)
		emit(v.Validator)
	case *chain.DCCoinbase:
		emit(v.Payee)
	case *chain.SecurityCoinbase:
		emit(v.Payee)
	}
}

// rewardMembers indexes one shared rewards transaction's entries: a
// ref entry<<1|field for each of its 2·len(Entries) address fields
// (field 0 the Account, 1 the Gateway), empty fields included, sorted
// by the address each names. It answers exactly what mentionsActor
// answers for the transaction, with one binary search per actor.
type rewardMembers struct {
	at   pos
	refs []uint32
}

// memberAddr returns the address ref names among es.
func memberAddr(es []chain.RewardEntry, ref uint32) string {
	if ref&1 == 0 {
		return es[ref>>1].Account
	}
	return es[ref>>1].Gateway
}

// rewardIndex returns the segment's rewards membership indexes,
// building them on first use.
func (g *segment) rewardIndex() []rewardMembers {
	g.membersOnce.Do(func() {
		ms := make([]rewardMembers, 0, g.shared.n)
		it := g.shared.iter(0)
		for p, ok := it.next(); ok; p, ok = it.next() {
			es := g.blocks[p.blk].Txns[p.txn].(*chain.Rewards).Entries
			refs := make([]uint32, 2*len(es))
			for i := range refs {
				refs[i] = uint32(i)
			}
			slices.SortFunc(refs, func(a, b uint32) int {
				return strings.Compare(memberAddr(es, a), memberAddr(es, b))
			})
			ms = append(ms, rewardMembers{at: p, refs: refs})
		}
		g.members = ms
	})
	return g.members
}

// mentionsAnyMember reports whether the shared rewards transaction r
// at p names any of the actors. p must be on the shared list.
func mentionsAnyMember(ms []rewardMembers, p pos, r *chain.Rewards, actors []string) bool {
	refs := ms[sort.Search(len(ms), func(i int) bool { return !less(ms[i].at, p) })].refs
	for _, a := range actors {
		i := sort.Search(len(refs), func(i int) bool { return memberAddr(r.Entries, refs[i]) >= a })
		if i < len(refs) && memberAddr(r.Entries, refs[i]) == a {
			return true
		}
	}
	return false
}

// ActorsOf calls emit for every address t mentions, in the txn's own
// field order (possibly with duplicates). It is the single definition
// of "whose timeline does this transaction belong on" — the posting
// builder above, the federation layer's partitioning (internal/fed),
// and actor aggregations all share it.
func ActorsOf(t chain.Txn, emit func(string)) { actorsOf(t, emit) }

// Mentions reports whether t names the actor — the exact predicate
// behind Filter.Actors, exported so federated shards and correctness
// oracles apply identical semantics.
func Mentions(t chain.Txn, actor string) bool { return mentionsActor(t, actor) }

// mentionsActor reports whether t names the actor. It is the
// definition behind Filter.Actors: the pending buffer filters by it,
// and each rewardMembers index answers the same question.
func mentionsActor(t chain.Txn, actor string) bool {
	found := false
	actorsOf(t, func(a string) {
		if a == actor {
			found = true
		}
	})
	return found
}

func less(a, b pos) bool {
	if a.blk != b.blk {
		return a.blk < b.blk
	}
	return a.txn < b.txn
}
