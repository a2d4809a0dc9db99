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
// its first close), and a deque of the closes inside the trailing
// week of the current tip.
type TrafficState struct {
	perClose      *stats.TimeSeries
	totalPackets  int64
	closes        int64
	closesByOwner map[string]int64
	win           []trafficPoint
	winHead       int
	winSum        int64
}

// NewTrafficState returns an empty fold state.
func NewTrafficState() *TrafficState {
	return &TrafficState{
		perClose:      stats.NewTimeSeries("packets per SC close"),
		closesByOwner: make(map[string]int64),
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
// share against the ledger's OUI registry. The per-close series is
// cloned before the spike detector sorts it, so the state keeps
// folding after a snapshot.
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
	t.detectSpike()
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
func (t *TrafficAnalysis) detectSpike() {
	t.PerClose.Sort()
	n := t.PerClose.Len()
	if n < 10 {
		return
	}
	baseline := spikeBaseline(t.PerClose.Ys)
	// Score each hot run by its excess volume above baseline and keep
	// the biggest. Scoring by run *length* would let the noisy early
	// chain (closes of a handful of packets over a baseline of one)
	// outrank the arbitrage anomaly.
	bestScore, curStart := 0.0, -1
	for i := 0; i <= n; i++ {
		hot := i < n && t.PerClose.Ys[i] > 5*baseline[i]
		if hot && curStart < 0 {
			curStart = i
		}
		if !hot && curStart >= 0 {
			score, peak := 0.0, 0.0
			for k := curStart; k < i; k++ {
				score += t.PerClose.Ys[k] - baseline[k]
				if t.PerClose.Ys[k] > peak {
					peak = t.PerClose.Ys[k]
				}
			}
			if score > bestScore {
				bestScore = score
				t.SpikeStartBlock = t.PerClose.Xs[curStart]
				t.SpikeEndBlock = t.PerClose.Xs[i-1]
				t.SpikePeak = peak
			}
			curStart = -1
		}
	}
}

// spikeWindow is the half-width, in closes, of the baseline window.
const spikeWindow = 150

// spikeBaseline returns, for each close i, the median (the upper one
// for an even count) of ys[i-spikeWindow : i+spikeWindow] clipped to
// the series, or 1 where that is not positive. One sorted copy of the
// window slides along the series, inserting the entering close and
// deleting the leaving one by binary search.
func spikeBaseline(ys []float64) []float64 {
	n := len(ys)
	baseline := make([]float64, n)
	win := make([]float64, 0, 2*spikeWindow)
	lo, hi := 0, 0
	for i := range baseline {
		for ; hi < min(i+spikeWindow, n); hi++ {
			j := sort.SearchFloat64s(win, ys[hi])
			win = append(win, 0)
			copy(win[j+1:], win[j:])
			win[j] = ys[hi]
		}
		for ; lo < max(i-spikeWindow, 0); lo++ {
			j := sort.SearchFloat64s(win, ys[lo])
			win = append(win[:j], win[j+1:]...)
		}
		baseline[i] = win[len(win)/2]
		if baseline[i] <= 0 {
			baseline[i] = 1
		}
	}
	return baseline
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
