package stats

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// CDF is an empirical cumulative distribution function built from a
// sample. It answers both directions: P(X <= x) and the quantile
// function. The zero value is empty; add samples with Add or build one
// from a slice with NewCDF.
type CDF struct {
	// samples[:sortedN] is in ascending order; Add appends past it.
	sortedN int
	samples []float64
}

// NewCDF builds an empirical CDF from the given samples. The input
// slice is copied.
func NewCDF(samples []float64) *CDF {
	c := &CDF{samples: append([]float64(nil), samples...)}
	c.Sort()
	return c
}

// Add appends a sample.
func (c *CDF) Add(x float64) {
	c.samples = append(c.samples, x)
}

// Sort puts the samples in ascending order. Only the samples added
// since the last sort are sorted and merged into the sorted rest
// (SortAppended), so a CDF that grows between queries costs
// O(n + k log k) per query for k new samples, not O(n log n). Queries
// sort implicitly; calling Sort first lets a caller pay for it once,
// before cloning.
func (c *CDF) Sort() {
	SortAppended(c.samples, c.sortedN, cmp.Compare[float64])
	c.sortedN = len(c.samples)
}

// SortAppended sorts s by cmp, given that s[:sorted] is already in
// order: it sorts the rest, then merges the two runs in place from the
// back, so prefix elements at or below the rest's minimum never move.
// It costs O(k log k) for the k appended elements plus O(n) for the
// merge, which is skipped when they all sort after the prefix.
func SortAppended[T any](s []T, sorted int, cmp func(a, b T) int) {
	tail := s[sorted:]
	if len(tail) == 0 {
		return
	}
	slices.SortFunc(tail, cmp)
	if sorted == 0 || cmp(tail[0], s[sorted-1]) >= 0 {
		return
	}
	buf := append([]T(nil), tail...)
	i, j := sorted-1, len(buf)-1
	for k := len(s) - 1; j >= 0; k-- {
		if i >= 0 && cmp(buf[j], s[i]) < 0 {
			s[k] = s[i]
			i--
		} else {
			s[k] = buf[j]
			j--
		}
	}
}

// Clone returns an independent deep copy, preserving sample order and
// sortedness — a cloned-then-queried CDF is structurally identical to
// the original after the same queries.
func (c *CDF) Clone() *CDF {
	return &CDF{sortedN: c.sortedN, samples: append([]float64(nil), c.samples...)}
}

// N returns the number of samples.
func (c *CDF) N() int { return len(c.samples) }

// P returns the empirical P(X <= x). It returns 0 for an empty CDF.
func (c *CDF) P(x float64) float64 {
	if len(c.samples) == 0 {
		return 0
	}
	c.Sort()
	i := sort.SearchFloat64s(c.samples, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.samples))
}

// Quantile returns the q-th quantile (0 <= q <= 1) using the nearest-
// rank method. It panics on an empty CDF or out-of-range q.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.samples) == 0 {
		panic("stats: Quantile of empty CDF")
	}
	if q < 0 || q > 1 {
		panic("stats: Quantile q outside [0,1]")
	}
	c.Sort()
	if q == 0 {
		return c.samples[0]
	}
	i := int(math.Ceil(q*float64(len(c.samples)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(c.samples) {
		i = len(c.samples) - 1
	}
	return c.samples[i]
}

// Median returns the 0.5 quantile.
func (c *CDF) Median() float64 { return c.Quantile(0.5) }

// Min returns the smallest sample.
func (c *CDF) Min() float64 {
	if len(c.samples) == 0 {
		panic("stats: Min of empty CDF")
	}
	c.Sort()
	return c.samples[0]
}

// Max returns the largest sample.
func (c *CDF) Max() float64 {
	if len(c.samples) == 0 {
		panic("stats: Max of empty CDF")
	}
	c.Sort()
	return c.samples[len(c.samples)-1]
}

// Mean returns the arithmetic mean of the samples (0 for empty).
func (c *CDF) Mean() float64 {
	if len(c.samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range c.samples {
		sum += x
	}
	return sum / float64(len(c.samples))
}

// StdDev returns the population standard deviation of the samples.
func (c *CDF) StdDev() float64 {
	n := len(c.samples)
	if n == 0 {
		return 0
	}
	m := c.Mean()
	ss := 0.0
	for _, x := range c.samples {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

// Points returns up to n evenly spaced (x, P(X<=x)) points suitable
// for plotting the CDF as a line series. Fewer points are returned if
// the sample is smaller than n.
func (c *CDF) Points(n int) []Point {
	if len(c.samples) == 0 || n <= 0 {
		return nil
	}
	c.Sort()
	if n > len(c.samples) {
		n = len(c.samples)
	}
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		idx := i * (len(c.samples) - 1) / max(n-1, 1)
		pts = append(pts, Point{
			X: c.samples[idx],
			Y: float64(idx+1) / float64(len(c.samples)),
		})
	}
	return pts
}

// Point is a single (x, y) plot point.
type Point struct {
	X, Y float64
}

// Render returns a compact textual rendering of the CDF at a fixed set
// of probe quantiles, for inclusion in experiment reports.
func (c *CDF) Render(label, unit string) string {
	if len(c.samples) == 0 {
		return fmt.Sprintf("%s: (no samples)", label)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (n=%d): ", label, len(c.samples))
	for i, q := range []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.99} {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "p%02.0f=%.4g%s", q*100, c.Quantile(q), unit)
	}
	return b.String()
}

// KolmogorovSmirnov returns the two-sample KS statistic between c and
// other: the maximum absolute difference between the two empirical
// CDFs. Used by the relay-randomization analysis (Fig 11) to decide
// whether the observed assignment is consistent with random choice.
func (c *CDF) KolmogorovSmirnov(other *CDF) float64 {
	if c.N() == 0 || other.N() == 0 {
		return 1
	}
	c.Sort()
	other.Sort()
	maxD := 0.0
	i, j := 0, 0
	na, nb := float64(c.N()), float64(other.N())
	for i < c.N() && j < other.N() {
		// Advance past ties on both sides together so equal values do
		// not create a spurious CDF gap.
		x := math.Min(c.samples[i], other.samples[j])
		for i < c.N() && c.samples[i] == x {
			i++
		}
		for j < other.N() && other.samples[j] == x {
			j++
		}
		d := math.Abs(float64(i)/na - float64(j)/nb)
		if d > maxD {
			maxD = d
		}
	}
	return maxD
}
