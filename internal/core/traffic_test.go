package core

import (
	"sort"
	"testing"

	"peoplesnet/internal/chain"
	"peoplesnet/internal/stats"
)

// naiveSpikeBaseline is the per-close definition of the spike
// baseline: copy the clipped window, sort it, take its middle element.
func naiveSpikeBaseline(ys []float64) []float64 {
	n := len(ys)
	baseline := make([]float64, n)
	for i := range baseline {
		lo, hi := i-spikeWindow, i+spikeWindow
		if lo < 0 {
			lo = 0
		}
		if hi > n {
			hi = n
		}
		buf := append([]float64(nil), ys[lo:hi]...)
		sort.Float64s(buf)
		baseline[i] = buf[len(buf)/2]
		if baseline[i] <= 0 {
			baseline[i] = 1
		}
	}
	return baseline
}

// naiveSpike scores hot runs over the naive baseline, the way
// spikeScan scores them over the sliding one.
func naiveSpike(xs []int64, ys []float64) (start, end int64, peak float64) {
	n := len(ys)
	if n < 10 {
		return 0, 0, 0
	}
	baseline := naiveSpikeBaseline(ys)
	best, cur := 0.0, -1
	for i := 0; i <= n; i++ {
		hot := i < n && ys[i] > 5*baseline[i]
		if hot && cur < 0 {
			cur = i
		}
		if !hot && cur >= 0 {
			score, pk := 0.0, 0.0
			for k := cur; k < i; k++ {
				score += ys[k] - baseline[k]
				pk = max(pk, ys[k])
			}
			if score > best {
				best, start, end, peak = score, xs[cur], xs[i-1], pk
			}
			cur = -1
		}
	}
	return start, end, peak
}

// TestSpikeBaselineMatchesNaive pins the sliding-window median to the
// per-close copy-and-sort on seeded series full of ties and zeros,
// with bursts that the detector must find, at lengths around every
// window edge. One TrafficState folds each series and finalizes after
// every close, so each Finalize resumes from the baselines the
// previous one settled; its spike is checked on a sample of prefixes.
func TestSpikeBaselineMatchesNaive(t *testing.T) {
	for _, n := range []int{9, 10, 149, 150, 151, 299, 300, 301, 2000} {
		for seed := uint64(1); seed <= 5; seed++ {
			rng := stats.NewRNG(seed*1000 + uint64(n))
			ts := stats.NewTimeSeries("closes")
			st := NewTrafficState()
			ledger := chain.NewLedger()
			h := int64(0)
			for i := 0; i < n; i++ {
				h += int64(rng.Intn(3))
				y := float64(rng.Intn(4)) // 0–3: many ties and zeros
				if rng.Float64() < 0.05 {
					y = float64(rng.Intn(200)) // a burst
				}
				ts.Append(h, y)
				st.ApplyTxn(h, &chain.StateChannelClose{Summaries: []chain.SCSummary{{Packets: int64(y)}}})
				tr := st.Finalize(h, ledger)
				if i%(13+n/25) != 0 && i != n-1 {
					continue // the naive recount is quadratic; check a sample of prefixes
				}
				start, end, peak := naiveSpike(ts.Xs, ts.Ys)
				if tr.SpikeStartBlock != start || tr.SpikeEndBlock != end || tr.SpikePeak != peak {
					t.Fatalf("n=%d seed=%d prefix %d: spike [%d,%d] peak %v, want [%d,%d] peak %v",
						n, seed, i+1, tr.SpikeStartBlock, tr.SpikeEndBlock, tr.SpikePeak, start, end, peak)
				}
			}
			s := newSpikeScan()
			want := naiveSpikeBaseline(ts.Ys)
			for i := range want {
				if got := s.baseline(ts.Ys); got != want[i] {
					t.Fatalf("n=%d seed=%d: baseline[%d] = %v, want %v", n, seed, i, got, want[i])
				}
				s.next++
			}
			if start, end, _ := naiveSpike(ts.Xs, ts.Ys); n >= 150 && start == 0 && end == 0 {
				t.Fatalf("n=%d seed=%d: no spike found; the series does not exercise the detector", n, seed)
			}
		}
	}
}
