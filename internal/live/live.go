// Package live maintains the paper's §3–§6 analyses as incremental
// materialized views over an etl.Store — the regime the DeWi ETL
// service actually ran in: a dashboard that keeps up with ingest
// instead of rescanning history. A Study subscribes to the store's
// block tail and folds each new block into the same per-analysis
// states the batch path (`peoplesnet.Measure`) folds from genesis, so
// `Snapshot()` at height H is bit-identical to a batch measurement of
// the chain prefix up to H. Per-update cost is O(transactions in the
// new block), never O(chain).
package live

import (
	"fmt"
	"sync"

	"peoplesnet/internal/chain"
	"peoplesnet/internal/core"
	"peoplesnet/internal/etl"
)

// Options configures a Study.
type Options struct {
	// Meta is the hotspot measurement metadata (city, ISP, …) the
	// ownership analysis groups by. May be nil for a bare store.
	Meta map[string]core.HotspotMeta
	// PoCWeight is the notional transactions-per-sampled-receipt
	// weight (1 when unset), matching core.Dataset.PoCWeight.
	PoCWeight float64
	// Measure carries the shared batch/live analysis cutoffs. Zero
	// fields take the paper defaults; a positive Measure.PoCWeight
	// overrides PoCWeight above.
	Measure core.MeasureOptions
	// WindowDays is the trailing-window length for the windowed
	// growth/move/resale views (default 30).
	WindowDays int
}

// Study is the live measurement suite: a ledger replica plus one fold
// state per analysis, extended block by block.
type Study struct {
	opts Options

	mu        sync.Mutex
	ledger    *chain.Ledger
	summary   *core.SummaryState
	moves     *core.MovesState
	growth    *core.GrowthState
	ownership *core.OwnershipState
	resale    *core.ResaleState
	traffic   *core.TrafficState
	winAdds   *dayRing
	winMoves  *dayRing
	winXfers  *dayRing
	first     int64
	height    int64
	blocks    int64
	txns      int64
	applyErrs int64
	firstErr  error

	store     *etl.Store
	tail      *etl.Tail
	done      chan struct{}
	closeOnce sync.Once
}

// Snapshot is one consistent materialization of every live view, plus
// the staleness bookkeeping a dashboard needs.
type Snapshot struct {
	// Height/FirstHeight bound the folded prefix (-1 while empty).
	Height      int64
	FirstHeight int64
	// Blocks and Txns count what has been folded.
	Blocks int64
	Txns   int64
	// StoreTip is the subscribed store's tip at snapshot time (-1 for
	// a detached study); LagBlocks is how far the views trail it.
	StoreTip  int64
	LagBlocks int64
	// ApplyErrs counts transactions the ledger replica rejected (0 on
	// a healthy chain; nonzero means the replica diverged). The views
	// read only the folds, never the replica.
	ApplyErrs int64

	Summary   core.ChainSummary
	Moves     core.MoveAnalysis
	Growth    core.GrowthAnalysis
	Ownership core.OwnershipAnalysis
	Resale    core.ResaleAnalysis
	Traffic   core.TrafficAnalysis

	Window WindowSnapshot
}

// New returns a detached Study: the caller feeds it blocks through
// ApplyBlock (tests and benchmarks do this synchronously).
func New(opts Options) *Study {
	opts.Measure = opts.Measure.Normalized()
	if opts.WindowDays <= 0 {
		opts.WindowDays = 30
	}
	return &Study{
		opts:      opts,
		ledger:    chain.NewLedger(),
		summary:   core.NewSummaryState(),
		moves:     core.NewMovesState(),
		growth:    core.NewGrowthState(),
		ownership: core.NewOwnershipState(opts.Meta),
		resale:    core.NewResaleState(),
		traffic:   core.NewTrafficState(),
		winAdds:   newDayRing(opts.WindowDays),
		winMoves:  newDayRing(opts.WindowDays),
		winXfers:  newDayRing(opts.WindowDays),
		first:     -1,
		height:    -1,
	}
}

// Attach builds a Study subscribed to the store's block tail from
// genesis: it replays every stored block, then folds new ones as they
// are ingested. Stop it with Close.
func Attach(s *etl.Store, opts Options) *Study {
	st := New(opts)
	st.store = s
	st.tail = s.Follow(-1)
	st.done = make(chan struct{})
	go st.run()
	return st
}

// run drains the tail until Close. Tail.Next blocks without dropping,
// so the study sees every block exactly once however slow a snapshot
// consumer is.
func (st *Study) run() {
	defer close(st.done)
	for {
		b, ok := st.tail.Next()
		if !ok {
			return
		}
		st.ApplyBlock(b)
	}
}

// Close detaches from the store and waits for the fold goroutine to
// stop. It is a no-op for a detached Study.
func (st *Study) Close() {
	if st.tail == nil {
		return
	}
	st.closeOnce.Do(func() {
		st.tail.Close()
		<-st.done
	})
}

// ApplyBlock folds one block into every view: O(len(b.Txns)) plus a
// constant number of ring-buffer slots. Blocks at or below the
// current height are ignored, so a replayed prefix cannot double
// count.
func (st *Study) ApplyBlock(b *chain.Block) {
	if b == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if b.Height <= st.height {
		return
	}
	addsBefore := st.growth.Total()
	movesBefore := st.moves.TotalMoves()
	xfersBefore := st.resale.Total()
	st.summary.ApplyBlock(b)
	for _, t := range b.Txns {
		if err := st.ledger.ApplyTxn(t, b.Height); err != nil {
			st.applyErrs++
			if st.firstErr == nil {
				st.firstErr = fmt.Errorf("live: replica apply block %d (%s): %w", b.Height, t.TxnType(), err)
			}
		}
		st.moves.ApplyTxn(b.Height, t)
		st.growth.ApplyTxn(b.Height, t)
		st.ownership.ApplyTxn(b.Height, t)
		st.resale.ApplyTxn(b.Height, t)
		st.traffic.ApplyTxn(b.Height, t)
	}
	if st.first < 0 {
		st.first = b.Height
	}
	st.height = b.Height
	st.blocks++
	st.txns += int64(len(b.Txns))
	day := b.Height / chain.BlocksPerDay
	st.winAdds.observe(day, float64(st.growth.Total()-addsBefore))
	st.winMoves.observe(day, float64(st.moves.TotalMoves()-movesBefore))
	st.winXfers.observe(day, float64(st.resale.Total()-xfersBefore))
}

// Height returns the height of the last folded block (-1 while
// empty).
func (st *Study) Height() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.height
}

// Lag returns how many blocks the views trail the subscribed store's
// tip (0 for a detached or caught-up study).
func (st *Study) Lag() int64 {
	if st.store == nil {
		return 0
	}
	tip := st.store.Height()
	st.mu.Lock()
	defer st.mu.Unlock()
	if lag := tip - st.height; lag > 0 {
		return lag
	}
	return 0
}

// Err returns the first ledger-replica divergence, if any.
func (st *Study) Err() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.firstErr
}

// pocWeight resolves the effective PoC sampling weight.
func (st *Study) pocWeight() float64 {
	if st.opts.Measure.PoCWeight > 0 {
		return st.opts.Measure.PoCWeight
	}
	if st.opts.PoCWeight > 0 {
		return st.opts.PoCWeight
	}
	return 1
}

// Snapshot materializes every view at the study's current height. The
// result shares no mutable state with the study, which keeps folding.
// It walks no hotspots and scans no chain: it costs the size of the
// answer plus what changed since the last snapshot. The ownership fold
// profiles its bulk owners; the spike detector scores the closes that
// arrived since, plus the last 150, whose baselines are still open; the
// moves fold merges its new samples into its sorted CDFs; the resale
// fold picks its top traders with a bounded heap. The per-close series
// and the CDFs are copied once each. It holds the study's lock
// throughout, so ApplyBlock waits for it.
func (st *Study) Snapshot() Snapshot {
	st.mu.Lock()
	defer st.mu.Unlock()
	sn := Snapshot{
		Height:      st.height,
		FirstHeight: st.first,
		Blocks:      st.blocks,
		Txns:        st.txns,
		StoreTip:    -1,
		ApplyErrs:   st.applyErrs,
		Summary:     st.summary.Finalize(st.pocWeight()),
		Moves:       st.moves.Finalize(),
		Growth:      st.growth.Finalize(),
		Ownership:   st.ownership.Finalize(),
		Resale:      st.resale.Finalize(st.opts.Measure.ResaleTopN, int(st.growth.Total())),
		Traffic:     st.traffic.Finalize(st.height),
		Window: WindowSnapshot{
			Days:      st.opts.WindowDays,
			TipDay:    -1,
			Adds:      st.winAdds.sum(),
			Moves:     st.winMoves.sum(),
			Transfers: st.winXfers.sum(),
		},
	}
	if st.height >= 0 {
		sn.Window.TipDay = st.height / chain.BlocksPerDay
	}
	if st.store != nil {
		sn.StoreTip = st.store.Height()
		if lag := sn.StoreTip - sn.Height; lag > 0 {
			sn.LagBlocks = lag
		}
	}
	return sn
}
