package stats

import (
	"reflect"
	"strings"
	"testing"
)

func TestHistogramCounts(t *testing.T) {
	h := NewHistogram()
	h.Observe(0)
	h.Observe(0)
	h.Observe(1)
	h.ObserveN(5, 3)
	if h.Total() != 6 {
		t.Fatalf("Total = %d", h.Total())
	}
	if h.Count(0) != 2 || h.Count(1) != 1 || h.Count(5) != 3 {
		t.Fatal("counts wrong")
	}
	if h.Count(99) != 0 {
		t.Fatal("missing value should count 0")
	}
}

func TestHistogramFractions(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 7; i++ {
		h.Observe(0)
	}
	for i := 0; i < 2; i++ {
		h.Observe(1)
	}
	h.Observe(10)
	if got := h.FracExactly(0); got != 0.7 {
		t.Errorf("FracExactly(0) = %v", got)
	}
	if got := h.FracAtMost(1); got != 0.9 {
		t.Errorf("FracAtMost(1) = %v", got)
	}
	if got := h.FracMoreThan(1); got < 0.0999 || got > 0.1001 {
		t.Errorf("FracMoreThan(1) = %v", got)
	}
	if h.Max() != 10 {
		t.Errorf("Max = %d", h.Max())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.FracAtMost(5) != 0 || h.Max() != 0 || h.Total() != 0 {
		t.Fatal("empty histogram invariants violated")
	}
}

func TestHistogramValuesSorted(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int{9, 1, 5, 1, 9, 3} {
		h.Observe(v)
	}
	vs := h.Values()
	want := []int{1, 3, 5, 9}
	if len(vs) != len(want) {
		t.Fatalf("Values = %v", vs)
	}
	for i := range want {
		if vs[i] != want[i] {
			t.Fatalf("Values = %v, want %v", vs, want)
		}
	}
}

func TestTimeSeriesSortAndCumulative(t *testing.T) {
	ts := NewTimeSeries("adds")
	ts.Append(3, 5)
	ts.Append(1, 2)
	ts.Append(2, 3)
	cum := ts.Cumulative()
	if cum.Len() != 3 {
		t.Fatalf("len = %d", cum.Len())
	}
	wantX := []int64{1, 2, 3}
	wantY := []float64{2, 5, 10}
	for i := range wantX {
		if cum.Xs[i] != wantX[i] || cum.Ys[i] != wantY[i] {
			t.Fatalf("cumulative = %v/%v", cum.Xs, cum.Ys)
		}
	}
}

// TestTimeSeriesAppendKeepsSorted: points appended in non-decreasing
// x (ties included) leave the series sorted, so Sort keeps the very
// same slices; one point out of order makes Sort reorder, stably.
func TestTimeSeriesAppendKeepsSorted(t *testing.T) {
	ts := NewTimeSeries("closes")
	for i, x := range []int64{1, 2, 2, 5, 5, 5, 9} {
		ts.Append(x, float64(i))
	}
	xs, ys := ts.Xs, ts.Ys
	ts.Sort()
	if &ts.Xs[0] != &xs[0] || &ts.Ys[0] != &ys[0] {
		t.Fatal("Sort copied an in-order series")
	}
	if !reflect.DeepEqual(ts.Xs, []int64{1, 2, 2, 5, 5, 5, 9}) ||
		!reflect.DeepEqual(ts.Ys, []float64{0, 1, 2, 3, 4, 5, 6}) {
		t.Fatalf("in-order series changed: %v/%v", ts.Xs, ts.Ys)
	}

	ts.Append(3, 7) // out of order, then more ties
	ts.Append(3, 8)
	ts.Append(9, 9)
	ts.Sort()
	if !reflect.DeepEqual(ts.Xs, []int64{1, 2, 2, 3, 3, 5, 5, 5, 9, 9}) ||
		!reflect.DeepEqual(ts.Ys, []float64{0, 1, 2, 7, 8, 3, 4, 5, 6, 9}) {
		t.Fatalf("sorted = %v/%v, want equal-x points in append order", ts.Xs, ts.Ys)
	}
	if c := ts.Clone(); !c.sorted {
		t.Fatal("Clone of a sorted series is not sorted")
	}
}

func TestTimeSeriesRender(t *testing.T) {
	ts := NewTimeSeries("traffic")
	for i := int64(0); i < 100; i++ {
		ts.Append(i, float64(i))
	}
	s := ts.Render(20)
	if !strings.Contains(s, "traffic") {
		t.Fatalf("render = %q", s)
	}
	if (&TimeSeries{Name: "x"}).Render(10) != "x: (empty)" {
		t.Fatal("empty series render wrong")
	}
}

// TestHistogramUnobserve drives per-owner fleet sizes through buys and
// sales — Observe for a new owner, Shift for a size change, Unobserve
// for an owner selling their last unit — and requires the result to
// be structurally identical to observing each final size once.
func TestHistogramUnobserve(t *testing.T) {
	rng := NewRNG(17)
	sizes := make(map[int]int) // owner → units held
	h := NewHistogram()
	for step := 0; step < 5000; step++ {
		owner := rng.Intn(40)
		n := sizes[owner]
		switch {
		case n == 0:
			h.Observe(1)
			sizes[owner] = 1
		case rng.Float64() < 0.45 && n == 1:
			h.Unobserve(1)
			delete(sizes, owner)
		case rng.Float64() < 0.45 && n > 1:
			h.Shift(n, n-1)
			sizes[owner] = n - 1
		default:
			h.Shift(n, n+1)
			sizes[owner] = n + 1
		}
		if step%250 != 0 {
			continue
		}
		want := NewHistogram()
		for _, v := range sizes {
			want.Observe(v)
		}
		if !reflect.DeepEqual(h, want) {
			t.Fatalf("step %d: histogram %+v, want %+v", step, h, want)
		}
	}
}
