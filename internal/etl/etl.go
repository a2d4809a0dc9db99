// Package etl is the indexing layer between the chain and the
// analysis engine — the stand-in for the DeWi ETL service whose
// Postgres replica every query in the paper actually ran against
// (the paper never scanned raw blocks; §3's footnote credits the
// community ETL for all chain data).
//
// A Store ingests blocks — either bulk-loading a finished chain or
// following a live one as the simulator produces blocks — into an
// append-only sequence of sealed segments plus a small pending buffer.
// Each sealed segment carries secondary indexes over its blocks:
//
//   - per-transaction-type posting lists (§3 txn-mix queries, the
//     Fig 5/7/8 single-type scans),
//   - per-actor posting lists (hotspot address or wallet → its txn
//     timeline, the federation's actor queries); rewards, which pay
//     hundreds to thousands of accounts each (PaperWorld(7): 659
//     rewards, 389,446 entries), sit on one shared list per segment
//     instead. An actor query tests each shared rewards transaction
//     for membership with one binary search over its entries'
//     addresses, sorted once, on the segment's first actor scan,
//   - per-region transaction counts (RegionOf, the federation's
//     routing regions), built on the first region count that covers
//     the whole segment and never persisted (CountRegion).
//
// On top of the segments the store maintains incremental materialized
// aggregates for the hot analyses (transaction mix, location asserts
// per hotspot, transfers, state-channel closes, adds per day), so a
// repeated query costs O(answer) instead of O(chain), and appending N
// blocks then re-querying costs O(N).
//
// Queries run through Scan, an ordered visit on the caller's
// goroutine; Follow returns a tail that replays history and then
// streams live blocks. The View adapter satisfies internal/core's
// ChainView, so every existing analysis resolves through the indexes
// unchanged.
package etl

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"peoplesnet/internal/chain"
)

// DefaultSegmentBlocks is the seal threshold. Simulated worlds mint
// one (large) block per simulated day — ~667 blocks for the paper's
// window — so 64-block segments keep the linearly-scanned pending
// buffer small while each segment stays a cheap unit to load. Real
// minute-granularity chains would raise this.
const DefaultSegmentBlocks = 64

// Config parameterizes a Store. The zero value is usable: it means
// DefaultSegmentBlocks on the host filesystem.
type Config struct {
	// SegmentBlocks is how many blocks a segment holds before it is
	// sealed (and indexed). 0 means DefaultSegmentBlocks.
	SegmentBlocks int
	// FS is the filesystem a durable store (Open) drives. nil means
	// the host filesystem; tests inject internal/faultfs here. Memory
	// stores (New, FromChain) ignore it.
	FS FS
}

// Store is the indexed block store. One goroutine may ingest
// (Append/BulkLoad or a Follower) concurrently with any number of
// readers; sealed segments are immutable, and all mutable state is
// guarded by mu.
type Store struct {
	cfg Config

	mu     sync.RWMutex
	grown  *sync.Cond // broadcast after every Append; tails wait on it
	sealed []*segment
	// pending holds blocks of the yet-unsealed segment; queries scan
	// it linearly (it is at most SegmentBlocks long).
	pending     []*chain.Block
	pendingTxns int64
	first, tip  int64 // block heights; -1 while empty
	agg         *aggregates
	// aggPending counts sealed segments whose aggregate contribution
	// is not yet folded into agg. A lazy Open owes one fold per stub;
	// ensureAgg settles the debt before any aggregate is read.
	aggPending int
	lastAppend time.Time
	// dur is the persistence state; nil for a memory-only store.
	dur *durable
	// ingestRetries counts transient persist faults retried by the
	// Follower feeding this store — cumulative, never reset,
	// surfaced in Health so operators can see a flapping disk before it
	// becomes a crash.
	ingestRetries atomic.Int64
}

// NoteIngestRetry counts one retried transient persist fault against
// the store's health surface. The Follower's retry loop — behind the
// chain follower and every federation shard node — calls it once per
// retry.
func (s *Store) NoteIngestRetry() { s.ingestRetries.Add(1) }

// IngestRetries reports the cumulative retried-fault count.
func (s *Store) IngestRetries() int64 { return s.ingestRetries.Load() }

// New returns an empty store.
func New(cfg Config) *Store {
	if cfg.SegmentBlocks <= 0 {
		cfg.SegmentBlocks = DefaultSegmentBlocks
	}
	s := &Store{cfg: cfg, first: -1, tip: -1, agg: newAggregates()}
	s.grown = sync.NewCond(&s.mu)
	return s
}

// FromChain bulk-loads a finished chain into a fresh store with the
// default configuration.
func FromChain(c *chain.Chain) *Store {
	s := New(Config{})
	s.BulkLoad(c)
	return s
}

// ensureAgg folds every outstanding sealed-segment contribution into
// the live aggregates. Aggregate reads call it first, so a lazily
// opened store materializes on the first aggregate query rather than
// at Open; the common case (nothing pending) is one RLock.
func (s *Store) ensureAgg() {
	s.mu.RLock()
	pending := s.aggPending
	sealed := s.sealed
	s.mu.RUnlock()
	if pending == 0 {
		return
	}
	// Load outside the lock — loads do file I/O and take no store
	// locks — then fold under it. aggFolded makes the fold idempotent
	// against a racing ensureAgg.
	preloadSegments(sealed)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, g := range s.sealed {
		if g.aggFolded {
			continue
		}
		g.aggFolded = true
		s.aggPending--
		if g.broken() || g.agg == nil {
			continue // nothing to fold; the range is a Gap
		}
		s.agg.addSegment(g, g.agg)
	}
	// Folds land in segment order but after any WAL-tail observations
	// from Open, so the close-point series needs one re-sort.
	sort.SliceStable(s.agg.Closes, func(i, j int) bool {
		return s.agg.Closes[i].Height < s.agg.Closes[j].Height
	})
}

// Preload forces every lazy segment to materialize and folds all
// aggregate contributions — the v1 eager-open behavior, for callers
// that prefer paying the full load up front (Repair does, so damage
// anywhere is discovered in one pass).
func (s *Store) Preload() {
	sealed, _ := s.view()
	preloadSegments(sealed)
	s.ensureAgg()
}

// Stats summarizes the store's shape.
type Stats struct {
	Blocks        int64
	Txns          int64
	Segments      int
	PendingBlocks int
	FirstHeight   int64
	TipHeight     int64
	// TypePostings / ActorPostings count index entries across sealed
	// segments; SharedPostings counts rewards parked on shared lists.
	TypePostings   int64
	ActorPostings  int64
	SharedPostings int64
	// PostingsBytes is the encoded size of every posting list — the
	// compressed index footprint benchmarks and bench-trend track.
	PostingsBytes int64
}

// Stats reports the current store shape. It forces full
// materialization (posting sizes live in segment indexes).
func (s *Store) Stats() Stats {
	s.Preload()
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{
		PendingBlocks: len(s.pending),
		FirstHeight:   s.first,
		TipHeight:     s.tip,
		Txns:          s.agg.txnCount,
		Blocks:        int64(len(s.pending)),
	}
	for _, g := range s.sealed {
		if g.broken() {
			continue
		}
		st.Segments++
		st.Blocks += int64(len(g.blocks))
		for _, ps := range g.byType {
			st.TypePostings += int64(ps.n)
			st.PostingsBytes += int64(ps.bytes())
		}
		for _, ps := range g.byActor {
			st.ActorPostings += int64(ps.n)
			st.PostingsBytes += int64(ps.bytes())
		}
		if g.shared != nil {
			st.SharedPostings += int64(g.shared.n)
			st.PostingsBytes += int64(g.shared.bytes())
		}
	}
	return st
}

// SegmentInfo describes one sealed segment: its height range and size.
type SegmentInfo struct {
	FromHeight int64 `json:"from_height"`
	ToHeight   int64 `json:"to_height"`
	Blocks     int   `json:"blocks"`
	Txns       int   `json:"txns"`
	// Loaded reports whether the segment is materialized in memory;
	// false for stubs no query has touched yet. Blocks and Txns are 0
	// until then (only the height range is known from the file name).
	Loaded bool `json:"loaded"`
}

// Segments lists the sealed segments in height order. It never forces
// a load — unloaded stubs report only their height range.
func (s *Store) Segments() []SegmentInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]SegmentInfo, len(s.sealed))
	for i, g := range s.sealed {
		info := SegmentInfo{FromHeight: g.from, ToHeight: g.to}
		if g.loaded() && !g.broken() {
			info.Blocks = len(g.blocks)
			info.Txns = int(g.txns)
			info.Loaded = true
		}
		out[i] = info
	}
	return out
}
