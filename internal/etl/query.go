package etl

import (
	"math"
	"math/bits"
	"runtime"
	"sort"
	"sync"

	"peoplesnet/internal/chain"
)

// Range selects block heights [From, To], inclusive. To < 0 means the
// current tip.
type Range struct {
	From, To int64
}

// All selects the whole chain.
func All() Range { return Range{From: 0, To: -1} }

// Filter restricts a scan. Empty fields match everything; Types and
// Actors compose conjunctively (txn type must match AND the txn must
// mention one of the actors).
type Filter struct {
	Types  []chain.TxnType
	Actors []string
}

func (f Filter) empty() bool { return len(f.Types) == 0 && len(f.Actors) == 0 }

// typeMask packs the type filter into a bitmask over TxnType values so
// a per-posting check is a single AND; 0 means no type filter. Every
// TxnType fits in 64 bits, so a value beyond them names no type and
// matches nothing: ok is false when the filter can match nothing.
func (f Filter) typeMask() (mask uint64, ok bool) {
	for _, tt := range f.Types {
		if tt < 64 {
			mask |= 1 << tt
		}
	}
	return mask, len(f.Types) == 0 || mask != 0
}

// view snapshots the segment list and pending buffer. Both are
// append-only and their elements immutable, so iterating the snapshot
// lock-free is safe, and user callbacks never run under the lock.
func (s *Store) view() ([]*segment, []*chain.Block) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sealed, s.pending
}

// Scan visits every transaction matching the range and filter in
// height order, stopping early if fn returns false. Sealed segments
// resolve through posting lists; only the pending buffer (at most one
// segment's worth of blocks) is scanned linearly.
func (s *Store) Scan(r Range, f Filter, fn func(height int64, t chain.Txn) bool) {
	sealed, pending := s.view()
	to := r.To
	if to < 0 {
		to = math.MaxInt64
	}
	mask, ok := f.typeMask()
	if !ok {
		return
	}
	for _, g := range sealed {
		if !g.overlaps(r.From, to) {
			continue
		}
		if !scanSegment(g, r.From, to, f, mask, fn) {
			return
		}
	}
	scanBlocks(pending, r.From, to, f, mask, fn)
}

// preloadWorkers caps preloadSegments' pool of concurrent stub loads.
const preloadWorkers = 8

// preloadSegments materializes every unloaded stub in segs, fanning
// the file loads out to a small pool. Loads are independent (each owns
// its Once) and gap accounting is order-independent (insertGap), so
// concurrent discovery is safe.
func preloadSegments(segs []*segment) {
	var stubs []*segment
	for _, g := range segs {
		if !g.loaded() {
			stubs = append(stubs, g)
		}
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > preloadWorkers {
		workers = preloadWorkers
	}
	if workers > len(stubs) {
		workers = len(stubs)
	}
	if workers <= 1 {
		for _, g := range stubs {
			g.load()
		}
		return
	}
	jobs := make(chan *segment)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := range jobs {
				g.load()
			}
		}()
	}
	for _, g := range stubs {
		jobs <- g
	}
	close(jobs)
	wg.Wait()
}

// scanSegment visits a sealed segment through its indexes. Returns
// false if fn stopped the scan. mask is f.typeMask(), computed once by
// the caller. The first touch of a stub materializes it here; a broken
// segment matches nothing (its range is reported through Gaps).
func scanSegment(g *segment, from, to int64, f Filter, mask uint64, fn func(int64, chain.Txn) bool) bool {
	if !g.load() {
		return true
	}
	whole := g.from >= from && g.to <= to
	inRange := func(h int64) bool { return whole || (h >= from && h <= to) }

	if f.empty() {
		blks := g.blocks
		if !whole {
			i := sort.Search(len(blks), func(i int) bool { return blks[i].Height >= from })
			blks = blks[i:]
		}
		for _, b := range blks {
			if b.Height > to {
				return true
			}
			for _, t := range b.Txns {
				if !fn(b.Height, t) {
					return false
				}
			}
		}
		return true
	}

	// Rewards parked on the shared list (fan-out suppressed) join an
	// actor scan whose types admit them, and are tested against the
	// segment's membership index.
	var members []rewardMembers
	if len(f.Actors) > 0 && g.shared.n > 0 && (mask == 0 || mask&(1<<chain.TxnRewards) != 0) {
		members = g.rewardIndex()
	}

	// emit resolves a matched posting. Only shared-list rewards still
	// need the membership test — every other filter dimension has been
	// decided on posting positions alone, without touching the block.
	emit := func(p pos) bool {
		b := g.blocks[p.blk]
		if !inRange(b.Height) {
			return b.Height <= to // past the range end: stop
		}
		t := b.Txns[p.txn]
		if members != nil && p.tt == chain.TxnRewards &&
			!mentionsAnyMember(members, p, t.(*chain.Rewards), f.Actors) {
			return true
		}
		return fn(b.Height, t)
	}

	// Iterator slices start in a stack buffer: scanSegment runs once
	// per segment per query, and letting these appends hit the heap
	// showed up as GC time in the indexed-scan benchmarks.
	var itsBuf [4]postIter

	if len(f.Actors) == 0 {
		// Type postings are the answer; no per-posting checks needed.
		// byType lists are untyped — the mask bit fixes the type each
		// iterator reports. One bit per type, so a type listed twice
		// is merged once.
		typeIts := itsBuf[:0]
		for m := mask; m != 0; m &= m - 1 {
			tt := chain.TxnType(bits.TrailingZeros64(m))
			if ps := g.byType[tt]; ps != nil && ps.n > 0 {
				typeIts = append(typeIts, ps.iter(tt))
			}
		}
		return mergePostings(typeIts, 0, emit)
	}

	actorIts := itsBuf[:0]
	for _, a := range f.Actors {
		if ps := g.byActor[a]; ps != nil && ps.n > 0 {
			actorIts = append(actorIts, ps.iter(0))
		}
	}
	if members != nil {
		actorIts = append(actorIts, g.shared.iter(0))
	}
	// With a type filter too, postings carry their txn type, so the
	// type conjunction happens inside the iterators — rejected
	// postings never load a block or cross a function call.
	return mergePostings(actorIts, mask, emit)
}

// scanBlocks linearly visits unindexed blocks with the filter applied.
func scanBlocks(blocks []*chain.Block, from, to int64, f Filter, mask uint64, fn func(int64, chain.Txn) bool) bool {
	i := sort.Search(len(blocks), func(i int) bool { return blocks[i].Height >= from })
	for _, b := range blocks[i:] {
		if b.Height > to {
			return true
		}
		for _, t := range b.Txns {
			if mask != 0 && mask&(1<<t.TxnType()) == 0 {
				continue
			}
			if len(f.Actors) > 0 && !mentionsAny(t, f.Actors) {
				continue
			}
			if !fn(b.Height, t) {
				return false
			}
		}
	}
	return true
}

func mentionsAny(t chain.Txn, actors []string) bool {
	for _, a := range actors {
		if mentionsActor(t, a) {
			return true
		}
	}
	return false
}

// --- tail subscription ----------------------------------------------------

// Tail is a pull-based subscription over the store's block sequence:
// it replays every block after its start height, then blocks until
// new ones are ingested. Unlike a channel feed it can never drop a
// block, however slow the consumer.
type Tail struct {
	s      *Store
	after  int64
	closed bool // guarded by s.mu
}

// Follow returns a tail positioned after the given height (use -1 to
// replay everything, or Height() to receive only new blocks).
func (s *Store) Follow(after int64) *Tail {
	return &Tail{s: s, after: after}
}

// Next returns the next block, blocking until one is available. It
// returns false after Close.
func (t *Tail) Next() (*chain.Block, bool) {
	s := t.s
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if t.closed {
			return nil, false
		}
		if b := s.blockAfterLocked(t.after); b != nil {
			t.after = b.Height
			return b, true
		}
		s.grown.Wait()
	}
}

// Close unblocks any pending Next, which then returns false.
func (t *Tail) Close() {
	t.s.mu.Lock()
	t.closed = true
	t.s.mu.Unlock()
	t.s.grown.Broadcast()
}

// BlockAt returns the stored block at exactly height, or nil. Only the
// segment covering the height is materialized (lazy stubs stay cold),
// so a resumed follower can re-derive per-block metadata without
// paying for a full load.
func (s *Store) BlockAt(height int64) *chain.Block {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b := s.blockAfterLocked(height - 1)
	if b == nil || b.Height != height {
		return nil
	}
	return b
}

func (s *Store) blockAfterLocked(after int64) *chain.Block {
	i := sort.Search(len(s.sealed), func(i int) bool { return s.sealed[i].to > after })
	for ; i < len(s.sealed); i++ {
		if !s.sealed[i].load() {
			continue // broken: a tail skips its range like a gap
		}
		blks := s.sealed[i].blocks
		j := sort.Search(len(blks), func(j int) bool { return blks[j].Height > after })
		if j < len(blks) {
			return blks[j]
		}
	}
	j := sort.Search(len(s.pending), func(j int) bool { return s.pending[j].Height > after })
	if j < len(s.pending) {
		return s.pending[j]
	}
	return nil
}
