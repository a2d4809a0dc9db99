package core

import (
	"cmp"

	"peoplesnet/internal/chain"
	"peoplesnet/internal/geo"
	"peoplesnet/internal/h3lite"
	"peoplesnet/internal/stats"
)

// MoveRecord is one relocation: consecutive location assertions of a
// hotspot.
type MoveRecord struct {
	Hotspot    string
	FromBlock  int64
	ToBlock    int64
	From       geo.Point
	To         geo.Point
	DistanceKm float64
}

// MoveAnalysis reproduces §4.1: Figures 2 (moves per hotspot),
// 3 (move distances, long-distance classes, (0,0) artifacts), and
// 4 (block intervals between relocations).
type MoveAnalysis struct {
	Hotspots int

	// MovesPerHotspot is Fig 2. A "move" is an assertion after the
	// first.
	MovesPerHotspot *stats.Histogram
	NeverMovedFrac  float64
	AtMostTwoFrac   float64
	MoreThanFive    float64
	MaxMoves        int
	MaxMover        string

	// DistancesKm is Fig 3a/b; LongMoves lists every >500 km move
	// (Fig 3c).
	DistancesKm *stats.CDF
	LongMoves   []MoveRecord

	// IntervalBlocks is Fig 4.
	IntervalBlocks *stats.CDF
	WithinDayFrac  float64
	WithinWeekFrac float64
	WithinMoFrac   float64

	// (0,0) artifacts (§4.1).
	ZeroAssertions   int
	ZeroFirstAsserts int
	ZeroFirstFrac    float64
	StillAtZero      int
}

// moveTrack is the per-hotspot slice of MovesState: enough of the
// location history to extend it by one assertion.
type moveTrack struct {
	events    int
	prevPoint geo.Point
	prevBlock int64
	atZero    bool
}

// MovesState is the §4.1 fold: it consumes add_gateway and
// assert_location transactions in chain order and maintains every
// Fig 2–4 aggregate incrementally. The batch path folds the whole
// chain; the live path extends the same state block by block.
type MovesState struct {
	tracks    map[string]*moveTrack
	hotspots  int
	perMoves  *stats.Histogram
	maxMoves  int
	maxMover  string
	dist      *stats.CDF
	intervals *stats.CDF
	longMoves []MoveRecord
	// longMoves[:longSorted] is in LongMoves order.
	longSorted int
	zeroAss    int
	zeroFirst  int
	atZero     int
}

// NewMovesState returns an empty fold state.
func NewMovesState() *MovesState {
	return &MovesState{
		tracks:    make(map[string]*moveTrack),
		perMoves:  stats.NewHistogram(),
		dist:      &stats.CDF{},
		intervals: &stats.CDF{},
	}
}

// movesTxnTypes are the transaction types MovesState consumes.
var movesTxnTypes = []chain.TxnType{chain.TxnAddGateway, chain.TxnAssertLocation}

// ApplyTxn folds one transaction. Non-location transactions are
// ignored, as is an add_gateway that publishes no location (the ledger
// records no location event for those either).
func (st *MovesState) ApplyTxn(height int64, t chain.Txn) {
	switch v := t.(type) {
	case *chain.AddGateway:
		if v.Location != h3lite.InvalidCell {
			st.observe(v.Gateway, height, v.Location)
		}
	case *chain.AssertLocation:
		st.observe(v.Gateway, height, v.Location)
	default:
		// Every other transaction type leaves location state alone.
	}
}

// observe extends one hotspot's location history by one event,
// updating every aggregate the batch scan would have derived from the
// full history.
func (st *MovesState) observe(gw string, height int64, cell h3lite.Cell) {
	tr := st.tracks[gw]
	if tr == nil {
		tr = &moveTrack{}
		st.tracks[gw] = tr
		st.hotspots++
	}
	p := cell.Center()
	// The H3 cell containing exactly (0,0) has a centroid a few
	// meters off; treat anything within one cell of null island as a
	// (0,0) assertion.
	if geo.HaversineKm(p, geo.Point{}) < 0.05 {
		st.zeroAss++
		if tr.events == 0 {
			st.zeroFirst++
		}
	}
	exactZero := p.IsZero()
	if tr.events == 0 {
		st.perMoves.Observe(0)
		if exactZero {
			st.atZero++
		}
	} else {
		moves := tr.events // history length grows to events+1, so moves = events
		st.perMoves.Shift(moves-1, moves)
		if moves > st.maxMoves || (moves == st.maxMoves && gw < st.maxMover) {
			st.maxMoves = moves
			st.maxMover = gw
		}
		d := geo.HaversineKm(tr.prevPoint, p)
		st.dist.Add(d)
		st.intervals.Add(float64(height - tr.prevBlock))
		if d > 500 {
			st.longMoves = append(st.longMoves, MoveRecord{
				Hotspot: gw, FromBlock: tr.prevBlock, ToBlock: height,
				From: tr.prevPoint, To: p, DistanceKm: d,
			})
		}
		if tr.atZero != exactZero {
			if exactZero {
				st.atZero++
			} else {
				st.atZero--
			}
		}
	}
	tr.atZero = exactZero
	tr.prevPoint = p
	tr.prevBlock = height
	tr.events++
}

// TotalMoves returns the number of relocations folded so far (the
// windowed live views difference it per block).
func (st *MovesState) TotalMoves() int64 { return int64(st.dist.N()) }

// Finalize materializes the §4.1 analysis. The state is not consumed:
// aggregates are cloned, so a live view can keep folding after a
// snapshot. The state's own CDFs and long-move list are sorted in
// place first, so each call sorts only what was added since the last
// one.
func (st *MovesState) Finalize() MoveAnalysis {
	st.dist.Sort()
	st.intervals.Sort()
	stats.SortAppended(st.longMoves, st.longSorted, compareLongMoves)
	st.longSorted = len(st.longMoves)
	a := MoveAnalysis{
		Hotspots:         st.hotspots,
		MovesPerHotspot:  st.perMoves.Clone(),
		MaxMoves:         st.maxMoves,
		MaxMover:         st.maxMover,
		DistancesKm:      st.dist.Clone(),
		LongMoves:        append([]MoveRecord(nil), st.longMoves...),
		IntervalBlocks:   st.intervals.Clone(),
		ZeroAssertions:   st.zeroAss,
		ZeroFirstAsserts: st.zeroFirst,
		StillAtZero:      st.atZero,
	}
	if a.Hotspots > 0 {
		a.NeverMovedFrac = a.MovesPerHotspot.FracExactly(0)
		a.AtMostTwoFrac = a.MovesPerHotspot.FracAtMost(2)
		a.MoreThanFive = a.MovesPerHotspot.FracMoreThan(5)
	}
	if a.ZeroAssertions > 0 {
		a.ZeroFirstFrac = float64(a.ZeroFirstAsserts) / float64(a.ZeroAssertions)
	}
	if a.IntervalBlocks.N() > 0 {
		a.WithinDayFrac = a.IntervalBlocks.P(chain.BlocksPerDay)
		a.WithinWeekFrac = a.IntervalBlocks.P(7 * chain.BlocksPerDay)
		a.WithinMoFrac = a.IntervalBlocks.P(30 * chain.BlocksPerDay)
	}
	return a
}

// compareLongMoves orders LongMoves: longest first, then by hotspot
// and height.
func compareLongMoves(a, b MoveRecord) int {
	if c := cmp.Compare(b.DistanceKm, a.DistanceKm); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Hotspot, b.Hotspot); c != 0 {
		return c
	}
	return cmp.Compare(a.ToBlock, b.ToBlock)
}

// AnalyzeMoves folds the chain's location assertions from genesis —
// the same fold the live view runs incrementally, so the two agree
// bit for bit at equal heights.
func (d *Dataset) AnalyzeMoves() MoveAnalysis {
	st := NewMovesState()
	d.Chain.ScanTypes(movesTxnTypes, func(h int64, t chain.Txn) bool {
		st.ApplyTxn(h, t)
		return true
	})
	return st.Finalize()
}

// GrowthAnalysis reproduces Fig 5 from the chain: hotspots added per
// day and cumulatively.
type GrowthAnalysis struct {
	Daily      *stats.TimeSeries // adds per day
	Cumulative *stats.TimeSeries
	Total      int64
	// PeakDaily is the largest single-day batch.
	PeakDaily float64
	// FinalRate is the mean adds/day over the last 30 days.
	FinalRate float64
	// ByMaker counts adds per hardware vendor — Fig 5's observation
	// that "new production runs ('batches') are quickly placed into
	// service" shows up as maker eras.
	ByMaker map[string]int64
	// FirstMakerDay records when each vendor's first unit appeared.
	FirstMakerDay map[string]int64
}

// GrowthState is the Fig 5 fold: add_gateway transactions bucketed by
// day, maker tallies, and the running peak.
type GrowthState struct {
	perDay     map[int64]float64
	byMaker    map[string]int64
	firstMaker map[string]int64
	total      int64
	peak       float64
}

// NewGrowthState returns an empty fold state.
func NewGrowthState() *GrowthState {
	return &GrowthState{
		perDay:     make(map[int64]float64),
		byMaker:    make(map[string]int64),
		firstMaker: make(map[string]int64),
	}
}

// ApplyTxn folds one transaction; anything but add_gateway is ignored.
func (st *GrowthState) ApplyTxn(height int64, t chain.Txn) {
	ag, ok := t.(*chain.AddGateway)
	if !ok {
		return
	}
	day := height / chain.BlocksPerDay
	st.perDay[day]++
	if st.perDay[day] > st.peak {
		st.peak = st.perDay[day]
	}
	st.total++
	if m := ag.Maker; m != "" {
		st.byMaker[m]++
		if cur, ok := st.firstMaker[m]; !ok || day < cur {
			st.firstMaker[m] = day
		}
	}
}

// Total returns the hotspots added so far.
func (st *GrowthState) Total() int64 { return st.total }

// Finalize materializes Fig 5. Maps are copied and the day series is
// rebuilt, so the state keeps folding after a snapshot.
func (st *GrowthState) Finalize() GrowthAnalysis {
	g := GrowthAnalysis{
		Daily:         stats.NewTimeSeries("hotspot adds/day"),
		Total:         st.total,
		PeakDaily:     st.peak,
		ByMaker:       make(map[string]int64, len(st.byMaker)),
		FirstMakerDay: make(map[string]int64, len(st.firstMaker)),
	}
	for m, n := range st.byMaker {
		g.ByMaker[m] = n
	}
	for m, d := range st.firstMaker {
		g.FirstMakerDay[m] = d
	}
	for day, n := range st.perDay {
		g.Daily.Append(day, n)
	}
	g.Daily.Sort()
	g.Cumulative = g.Daily.Cumulative()
	// Final 30-day rate.
	if n := g.Daily.Len(); n > 0 {
		lastDay := g.Daily.Xs[n-1]
		sum, days := 0.0, 0.0
		for i := n - 1; i >= 0 && g.Daily.Xs[i] > lastDay-30; i-- {
			sum += g.Daily.Ys[i]
			days++
		}
		if days > 0 {
			g.FinalRate = sum / days
		}
	}
	return g
}

// AnalyzeGrowth folds add_gateway transactions from genesis — the
// identical fold the live view extends per block.
func (d *Dataset) AnalyzeGrowth() GrowthAnalysis {
	st := NewGrowthState()
	d.Chain.ScanType(chain.TxnAddGateway, func(h int64, t chain.Txn) bool {
		st.ApplyTxn(h, t)
		return true
	})
	return st.Finalize()
}
