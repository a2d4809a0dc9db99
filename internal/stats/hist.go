package stats

import (
	"fmt"
	"sort"
	"strings"
)

// Histogram counts integer-valued observations, such as "number of
// moves per hotspot" or "peers per relay". It keeps exact counts per
// value rather than binning, since the distributions in this study are
// small-integer valued with heavy tails.
type Histogram struct {
	counts map[int]int
	total  int
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make(map[int]int)}
}

// Observe records one observation of value v.
func (h *Histogram) Observe(v int) { h.ObserveN(v, 1) }

// ObserveN records n observations of value v.
func (h *Histogram) ObserveN(v, n int) {
	h.counts[v] += n
	h.total += n
}

// Shift moves one observation from value `from` to value `to` without
// changing the total — the incremental-view update for "this hotspot's
// move count just went from n-1 to n". A count that reaches zero is
// deleted so the histogram stays structurally identical to one built
// by observing each final value exactly once.
func (h *Histogram) Shift(from, to int) {
	h.counts[from]--
	if h.counts[from] == 0 {
		delete(h.counts, from)
	}
	h.counts[to]++
}

// Unobserve removes one observation of value v: the exact inverse of
// Observe, for "this owner just sold their last hotspot". A count that
// reaches zero is deleted, as in Shift.
func (h *Histogram) Unobserve(v int) {
	h.counts[v]--
	if h.counts[v] == 0 {
		delete(h.counts, v)
	}
	h.total--
}

// Clone returns an independent deep copy.
func (h *Histogram) Clone() *Histogram {
	c := &Histogram{counts: make(map[int]int, len(h.counts)), total: h.total}
	for v, n := range h.counts {
		c.counts[v] = n
	}
	return c
}

// Count returns the number of observations of exactly v.
func (h *Histogram) Count(v int) int { return h.counts[v] }

// Total returns the total number of observations.
func (h *Histogram) Total() int { return h.total }

// FracAtMost returns the fraction of observations with value <= v.
func (h *Histogram) FracAtMost(v int) float64 {
	if h.total == 0 {
		return 0
	}
	n := 0
	for val, c := range h.counts {
		if val <= v {
			n += c
		}
	}
	return float64(n) / float64(h.total)
}

// FracExactly returns the fraction of observations with value == v.
func (h *Histogram) FracExactly(v int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.counts[v]) / float64(h.total)
}

// FracMoreThan returns the fraction of observations with value > v.
func (h *Histogram) FracMoreThan(v int) float64 {
	return 1 - h.FracAtMost(v)
}

// Max returns the largest observed value (0 if empty).
func (h *Histogram) Max() int {
	m := 0
	first := true
	for v := range h.counts {
		if first || v > m {
			m = v
			first = false
		}
	}
	return m
}

// Values returns the observed values in ascending order.
func (h *Histogram) Values() []int {
	vs := make([]int, 0, len(h.counts))
	for v := range h.counts {
		vs = append(vs, v)
	}
	sort.Ints(vs)
	return vs
}

// TimeSeries is an append-only series of (index, value) pairs, used
// for daily-growth and per-block traffic plots. Indices are abstract
// (day number, block height).
type TimeSeries struct {
	Name   string
	Xs     []int64
	Ys     []float64
	sorted bool
}

// NewTimeSeries returns an empty named series.
func NewTimeSeries(name string) *TimeSeries { return &TimeSeries{Name: name} }

// Append adds one point. Points may arrive out of order; while they
// arrive in non-decreasing x the series stays sorted, and Sort has
// nothing to do.
func (t *TimeSeries) Append(x int64, y float64) {
	n := len(t.Xs)
	t.sorted = n == 0 || t.sorted && t.Xs[n-1] <= x
	t.Xs = append(t.Xs, x)
	t.Ys = append(t.Ys, y)
}

// Len returns the number of points.
func (t *TimeSeries) Len() int { return len(t.Xs) }

// Clone returns an independent deep copy, preserving sortedness.
func (t *TimeSeries) Clone() *TimeSeries {
	return &TimeSeries{
		Name:   t.Name,
		Xs:     append([]int64(nil), t.Xs...),
		Ys:     append([]float64(nil), t.Ys...),
		sorted: t.sorted,
	}
}

// Sort orders the series by x.
func (t *TimeSeries) Sort() {
	if t.sorted {
		return
	}
	idx := make([]int, len(t.Xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return t.Xs[idx[a]] < t.Xs[idx[b]] })
	xs := make([]int64, len(t.Xs))
	ys := make([]float64, len(t.Ys))
	for i, j := range idx {
		xs[i] = t.Xs[j]
		ys[i] = t.Ys[j]
	}
	t.Xs, t.Ys = xs, ys
	t.sorted = true
}

// Cumulative returns a new series whose y values are the running sum
// of t's (after sorting by x).
func (t *TimeSeries) Cumulative() *TimeSeries {
	t.Sort()
	out := NewTimeSeries(t.Name + " (cumulative)")
	sum := 0.0
	for i := range t.Xs {
		sum += t.Ys[i]
		out.Append(t.Xs[i], sum)
	}
	return out
}

// Render returns a sparkline-style textual rendering with at most
// width buckets, averaging y within each bucket.
func (t *TimeSeries) Render(width int) string {
	if t.Len() == 0 || width <= 0 {
		return t.Name + ": (empty)"
	}
	t.Sort()
	minX, maxX := t.Xs[0], t.Xs[len(t.Xs)-1]
	span := maxX - minX
	if span == 0 {
		span = 1
	}
	sums := make([]float64, width)
	counts := make([]int, width)
	for i := range t.Xs {
		b := int((t.Xs[i] - minX) * int64(width-1) / span)
		sums[b] += t.Ys[i]
		counts[b]++
	}
	levels := []rune(" .:-=+*#%@")
	maxAvg := 0.0
	avgs := make([]float64, width)
	for i := range sums {
		if counts[i] > 0 {
			avgs[i] = sums[i] / float64(counts[i])
			if avgs[i] > maxAvg {
				maxAvg = avgs[i]
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s [x=%d..%d, max=%.4g] ", t.Name, minX, maxX, maxAvg)
	for i := range avgs {
		l := 0
		if maxAvg > 0 {
			l = int(avgs[i] / maxAvg * float64(len(levels)-1))
		}
		b.WriteRune(levels[l])
	}
	return b.String()
}
