package etl

import (
	"math"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

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

// ScanParallel runs the same visit as Scan but fans segments out to a
// worker pool. fn must be safe for concurrent calls and observes no
// ordering; an fn returning false stops the scan (best effort across
// workers).
//
// workers <= 0 auto-picks: the posting lists and segment counters
// estimate how many transactions the filter will actually match, and
// a scan below the dispatch crossover (few segments, or little
// matched work — see EXPERIMENTS.md "Parallel scan") runs
// sequentially instead of paying per-segment dispatch. Callers should
// pass 0 unless they have measured a better choice.
func (s *Store) ScanParallel(r Range, f Filter, workers int, fn func(height int64, t chain.Txn) bool) {
	sealed, pending := s.view()
	to := r.To
	if to < 0 {
		to = math.MaxInt64
	}
	mask, ok := f.typeMask()
	if !ok {
		return
	}
	var overlapping []*segment
	for _, g := range sealed {
		if g.overlaps(r.From, to) {
			overlapping = append(overlapping, g)
		}
	}
	if workers <= 0 {
		// The auto pick reads index counters, which live in segment
		// sidecars — materialize overlapping stubs first (in parallel;
		// on a cold store these loads dominate the scan anyway).
		preloadSegments(overlapping)
		workers = autoWorkers(overlapping, f)
		if workers <= 1 {
			// Below the crossover the ordered sequential visit is
			// strictly better: faster and deterministic.
			s.Scan(r, f, fn)
			return
		}
	}
	var units []func(visit func(int64, chain.Txn) bool) bool
	for _, g := range overlapping {
		g := g
		units = append(units, func(visit func(int64, chain.Txn) bool) bool {
			return scanSegment(g, r.From, to, f, mask, visit)
		})
	}
	if len(pending) > 0 {
		units = append(units, func(visit func(int64, chain.Txn) bool) bool {
			return scanBlocks(pending, r.From, to, f, mask, visit)
		})
	}
	if workers > len(units) {
		workers = len(units)
	}
	if len(units) == 0 {
		return
	}
	var stopped atomic.Bool
	visit := func(h int64, t chain.Txn) bool {
		if stopped.Load() {
			return false
		}
		if !fn(h, t) {
			stopped.Store(true)
			return false
		}
		return true
	}
	jobs := make(chan func(func(int64, chain.Txn) bool) bool)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range jobs {
				if stopped.Load() {
					continue
				}
				u(visit)
			}
		}()
	}
	for _, u := range units {
		jobs <- u
	}
	close(jobs)
	wg.Wait()
}

// The parallel crossover. Measured at 1/20 paper scale (EXPERIMENTS.md
// "Parallel scan"), a full sequential visit of ~31k txns beats the
// 8-worker pool ~3×: per-segment dispatch overhead needs enough
// matched transactions per segment to amortize. Paper scale (~20×)
// clears both bars on unfiltered and type-filtered scans; narrow
// actor queries stay sequential at any scale, which is also right —
// their posting lists are short.
const (
	scanParallelMinSegments = 4
	scanParallelMinTxns     = 1 << 18
	scanParallelMaxWorkers  = 8
)

// autoWorkers sizes the pool from the work the filter will actually
// match, estimated from index counters without touching any block, and
// from the CPUs actually available: on a single-CPU process the pool
// only adds dispatch and contention on top of the same serial work, so
// the auto pick never parallelizes there (EXPERIMENTS.md "Parallel
// scan", 1-core row).
func autoWorkers(segs []*segment, f Filter) int {
	procs := runtime.GOMAXPROCS(0)
	if procs < 2 || len(segs) < scanParallelMinSegments {
		return 1
	}
	var est int64
	for _, g := range segs {
		est += estimateMatched(g, f)
	}
	if est < scanParallelMinTxns {
		return 1
	}
	w := len(segs)
	if w > procs {
		w = procs
	}
	if w > scanParallelMaxWorkers {
		w = scanParallelMaxWorkers
	}
	return w
}

// estimateMatched bounds how many of g's transactions the filter can
// match. Conjunctive filters take the smaller dimension. Unloaded or
// broken segments estimate zero — callers preload before estimating.
func estimateMatched(g *segment, f Filter) int64 {
	if !g.loaded() || g.broken() {
		return 0
	}
	if f.empty() {
		return g.txns
	}
	byType, byActor := int64(-1), int64(-1)
	if len(f.Types) > 0 {
		byType = 0
		for _, tt := range f.Types {
			if ps := g.byType[tt]; ps != nil {
				byType += int64(ps.n)
			}
		}
	}
	if len(f.Actors) > 0 {
		byActor = 0
		if g.shared != nil {
			byActor = int64(g.shared.n)
		}
		for _, a := range f.Actors {
			if ps := g.byActor[a]; ps != nil {
				byActor += int64(ps.n)
			}
		}
	}
	switch {
	case byType < 0:
		return byActor
	case byActor < 0 || byType < byActor:
		return byType
	default:
		return byActor
	}
}

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
	if workers > scanParallelMaxWorkers {
		workers = scanParallelMaxWorkers
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

	// emit resolves a matched posting. Only shared-list rewards still
	// need the mention check — every other filter dimension has been
	// decided on posting positions alone, without touching the block.
	needMention := len(f.Actors) > 0 && g.shared.n > 0
	emit := func(p pos) bool {
		b := g.blocks[p.blk]
		if !inRange(b.Height) {
			return b.Height <= to // past the range end: stop
		}
		t := b.Txns[p.txn]
		if needMention && t.TxnType() == chain.TxnRewards && !mentionsAny(t, f.Actors) {
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
	// Rewards parked on the shared list (fan-out suppressed) are
	// merged in and filtered by inspecting their entries in emit.
	if g.shared.n > 0 && (mask == 0 || mask&(1<<chain.TxnRewards) != 0) {
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

// --- height ↔ time range index -------------------------------------------

// TimeAt returns the timestamp of the first block at or after height.
// Only the segment covering the height loads (plus successors while
// broken segments are skipped).
func (s *Store) TimeAt(height int64) (time.Time, bool) {
	sealed, pending := s.view()
	i := sort.Search(len(sealed), func(i int) bool { return sealed[i].to >= height })
	for ; i < len(sealed); i++ {
		if !sealed[i].load() {
			continue // broken: the next segment holds the next block
		}
		blks := sealed[i].blocks
		j := sort.Search(len(blks), func(j int) bool { return blks[j].Height >= height })
		if j < len(blks) {
			return blks[j].Timestamp, true
		}
	}
	j := sort.Search(len(pending), func(j int) bool { return pending[j].Height >= height })
	if j < len(pending) {
		return pending[j].Timestamp, true
	}
	return time.Time{}, false
}

// HeightAt returns the height of the last block with a timestamp at
// or before t (-1 if the store starts later). The binary search loads
// the O(log segments) stubs it probes.
func (s *Store) HeightAt(t time.Time) int64 {
	sealed, pending := s.view()
	best := int64(-1)
	// Last segment that starts at or before t. A probe that fails to
	// load sorts as "starts early" — it matches nothing below anyway.
	i := sort.Search(len(sealed), func(i int) bool {
		return sealed[i].load() && sealed[i].fromTime.After(t)
	})
	// Walk back past broken segments to the last one with blocks ≤ t.
	for j := i - 1; j >= 0; j-- {
		if !sealed[j].load() {
			continue
		}
		blks := sealed[j].blocks
		k := sort.Search(len(blks), func(k int) bool { return blks[k].Timestamp.After(t) })
		if k > 0 {
			best = blks[k-1].Height
		}
		break
	}
	j := sort.Search(len(pending), func(j int) bool { return pending[j].Timestamp.After(t) })
	if j > 0 && pending[j-1].Height > best {
		best = pending[j-1].Height
	}
	return best
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
