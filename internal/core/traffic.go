package core

import (
	"sort"

	"peoplesnet/internal/chain"
	"peoplesnet/internal/stats"
)

// TrafficAnalysis reproduces §5 / Fig 8: packets per state-channel
// close over chain time, the Console's share, and the arbitrage
// spike.
type TrafficAnalysis struct {
	// PerClose is Fig 8: x = block height, y = packets in that close.
	PerClose *stats.TimeSeries
	// TotalPackets over the whole chain.
	TotalPackets int64
	// ConsoleShare is the fraction of close transactions belonging to
	// OUI 1 and 2 (§5.2: 81.18%).
	ConsoleShare float64
	// FinalPktPerSec is the aggregate user traffic rate over the last
	// week of the chain (paper: ≈14 pkt/s).
	FinalPktPerSec float64
	// SpikeStart/End bound the largest sustained traffic spike (the
	// §5.3.2 arbitrage window), in block heights; zero if none found.
	SpikeStartBlock int64
	SpikeEndBlock   int64
	SpikePeak       float64
}

// trafficPoint is one state-channel close held in the trailing-week
// window.
type trafficPoint struct {
	height int64
	pkts   int64
}

// TrafficState is the §5 fold: per-close series, totals, per-owner
// close counts (the Console share is resolved against the ledger's
// OUI registry at finalize time, because an OUI may register after
// its first close), a deque of the closes inside the trailing week of
// the current tip, and the settled part of the spike detector.
// Closes must arrive in chain order, as ScanType and a block tail
// deliver them, so the per-close series is already sorted.
type TrafficState struct {
	perClose      *stats.TimeSeries
	totalPackets  int64
	closes        int64
	closesByOwner map[string]int64
	win           []trafficPoint
	winHead       int
	winSum        int64
	spike         spikeScan
}

// NewTrafficState returns an empty fold state.
func NewTrafficState() *TrafficState {
	return &TrafficState{
		perClose:      stats.NewTimeSeries("packets per SC close"),
		closesByOwner: make(map[string]int64),
		spike:         newSpikeScan(),
	}
}

// ApplyTxn folds one transaction; anything but state_channel_close is
// ignored.
func (st *TrafficState) ApplyTxn(height int64, t chain.Txn) {
	cl, ok := t.(*chain.StateChannelClose)
	if !ok {
		return
	}
	pkts := cl.TotalPackets()
	st.perClose.Append(height, float64(pkts))
	st.totalPackets += pkts
	st.closes++
	st.closesByOwner[cl.Owner]++
	st.evict(height)
	st.win = append(st.win, trafficPoint{height, pkts})
	st.winSum += pkts
}

// evict drops window entries at or before tip minus one week. The tip
// only grows, so evicting against an intermediate height never drops
// an entry a later finalize would still want.
func (st *TrafficState) evict(tip int64) {
	cut := tip - 7*chain.BlocksPerDay
	for st.winHead < len(st.win) && st.win[st.winHead].height <= cut {
		st.winSum -= st.win[st.winHead].pkts
		st.winHead++
	}
	if st.winHead > len(st.win)/2 && st.winHead > 32 {
		st.win = append(st.win[:0:0], st.win[st.winHead:]...)
		st.winHead = 0
	}
}

// Finalize materializes §5 at the given tip, resolving the Console
// share against the ledger's OUI registry. The spike detector scores
// only the closes that arrived since the last Finalize plus the last
// spikeWindow ones, whose baselines a later close can still change.
// The state keeps folding after a snapshot.
func (st *TrafficState) Finalize(tip int64, ledger *chain.Ledger) TrafficAnalysis {
	t := TrafficAnalysis{
		PerClose:     st.perClose.Clone(),
		TotalPackets: st.totalPackets,
	}
	// Map owner wallets to OUIs for the Console share.
	ouiOf := make(map[string]uint32)
	for _, o := range ledger.OUIs() {
		if _, taken := ouiOf[o.Owner]; !taken || o.OUI < ouiOf[o.Owner] {
			ouiOf[o.Owner] = o.OUI
		}
	}
	var consoleCloses int64
	for owner, n := range st.closesByOwner {
		if oui := ouiOf[owner]; oui == 1 || oui == 2 {
			consoleCloses += n
		}
	}
	if st.closes > 0 {
		t.ConsoleShare = float64(consoleCloses) / float64(st.closes)
	}
	st.evict(tip)
	if tip > 0 {
		t.FinalPktPerSec = float64(st.winSum) / (7 * 24 * 3600)
	}
	st.detectSpike(&t)
	return t
}

// AnalyzeTraffic folds state-channel closes from genesis — the
// identical fold the live view extends per block.
func (d *Dataset) AnalyzeTraffic() TrafficAnalysis {
	st := NewTrafficState()
	d.Chain.ScanType(chain.TxnStateChannelClose, func(h int64, tx chain.Txn) bool {
		st.ApplyTxn(h, tx)
		return true
	})
	return st.Finalize(d.Chain.Height(), d.Chain.Ledger())
}

// detectSpike finds the largest contiguous run of closes whose packet
// counts exceed 5× a *local* baseline (the median of a surrounding
// window). A local baseline is essential: organic traffic grows
// orders of magnitude over the timeline, so a global threshold would
// flag the healthy end of the series instead of the August 2020
// anomaly.
//
// A close's baseline is final once spikeWindow closes follow it, so
// st.spike advances over those for good; a copy of it scores the
// rest, whose windows the end of the series still clips.
func (st *TrafficState) detectSpike(t *TrafficAnalysis) {
	xs, ys := st.perClose.Xs, st.perClose.Ys
	n := len(ys)
	if n < 10 {
		return
	}
	for st.spike.next+spikeWindow <= n {
		st.spike.step(xs, ys)
	}
	tail := st.spike.clone()
	for tail.next < n {
		tail.step(xs, ys)
	}
	tail.endRun(xs, n)
	t.SpikeStartBlock, t.SpikeEndBlock, t.SpikePeak = tail.bestStart, tail.bestEnd, tail.bestPeak
}

// spikeWindow is the half-width, in closes, of the baseline window.
const spikeWindow = 150

// spikeScan walks the per-close series once, in order. For close i it
// slides a sorted copy of ys[i-spikeWindow : i+spikeWindow] (clipped
// to the series) one close along, inserting the entering close and
// deleting the leaving one by binary search, and takes the window's
// median (the upper one for an even count, or 1 where that is not
// positive) as the baseline. It scores each hot run by its excess
// volume above baseline and keeps the biggest. Scoring by run
// *length* would let the noisy early chain (closes of a handful of
// packets over a baseline of one) outrank the arbitrage anomaly.
type spikeScan struct {
	next   int       // the close step scores next
	win    []float64 // sorted ys[lo:hi]
	lo, hi int

	runStart          int // first close of the open hot run, or -1
	runScore, runPeak float64

	bestScore          float64
	bestStart, bestEnd int64
	bestPeak           float64
}

func newSpikeScan() spikeScan {
	return spikeScan{win: make([]float64, 0, 2*spikeWindow), runStart: -1}
}

// clone copies the scan, window included.
func (s *spikeScan) clone() spikeScan {
	c := *s
	c.win = append(make([]float64, 0, 2*spikeWindow), s.win...)
	return c
}

// baseline slides the window to close s.next of ys and returns that
// close's baseline.
func (s *spikeScan) baseline(ys []float64) float64 {
	i, n := s.next, len(ys)
	for ; s.hi < min(i+spikeWindow, n); s.hi++ {
		j := sort.SearchFloat64s(s.win, ys[s.hi])
		s.win = append(s.win, 0)
		copy(s.win[j+1:], s.win[j:])
		s.win[j] = ys[s.hi]
	}
	for ; s.lo < max(i-spikeWindow, 0); s.lo++ {
		j := sort.SearchFloat64s(s.win, ys[s.lo])
		s.win = append(s.win[:j], s.win[j+1:]...)
	}
	b := s.win[len(s.win)/2]
	if b <= 0 {
		b = 1
	}
	return b
}

// step scores close s.next and moves on to the next one.
func (s *spikeScan) step(xs []int64, ys []float64) {
	i := s.next
	base := s.baseline(ys)
	if y := ys[i]; y > 5*base {
		if s.runStart < 0 {
			s.runStart, s.runScore, s.runPeak = i, 0, 0
		}
		s.runScore += y - base
		s.runPeak = max(s.runPeak, y)
	} else {
		s.endRun(xs, i)
	}
	s.next++
}

// endRun closes the open hot run, if any, before close i, keeping it
// if it outscores the best so far.
func (s *spikeScan) endRun(xs []int64, i int) {
	if s.runStart < 0 {
		return
	}
	if s.runScore > s.bestScore {
		s.bestScore = s.runScore
		s.bestStart, s.bestEnd, s.bestPeak = xs[s.runStart], xs[i-1], s.runPeak
	}
	s.runStart = -1
}

// RouterAnalysis reproduces §5.2: who runs routers.
type RouterAnalysis struct {
	OUIs          int
	ConsoleOUIs   int
	ConsoleOwner  string
	ThirdPartyOUI []uint32
}

// AnalyzeRouters lists the OUI registry.
func (d *Dataset) AnalyzeRouters() RouterAnalysis {
	r := RouterAnalysis{}
	for _, o := range d.Chain.Ledger().OUIs() {
		r.OUIs++
		if o.OUI <= 2 {
			r.ConsoleOUIs++
			r.ConsoleOwner = o.Owner
		} else {
			r.ThirdPartyOUI = append(r.ThirdPartyOUI, o.OUI)
		}
	}
	return r
}
