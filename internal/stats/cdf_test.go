package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4, 5})
	if c.N() != 5 {
		t.Fatalf("N = %d", c.N())
	}
	if got := c.P(3); got != 0.6 {
		t.Errorf("P(3) = %v, want 0.6", got)
	}
	if got := c.P(0); got != 0 {
		t.Errorf("P(0) = %v, want 0", got)
	}
	if got := c.P(5); got != 1 {
		t.Errorf("P(5) = %v, want 1", got)
	}
	if got := c.P(2.5); got != 0.4 {
		t.Errorf("P(2.5) = %v, want 0.4", got)
	}
	if c.Min() != 1 || c.Max() != 5 {
		t.Errorf("Min/Max = %v/%v", c.Min(), c.Max())
	}
	if c.Median() != 3 {
		t.Errorf("Median = %v", c.Median())
	}
	if c.Mean() != 3 {
		t.Errorf("Mean = %v", c.Mean())
	}
}

func TestCDFAddUnsorted(t *testing.T) {
	c := &CDF{}
	for _, v := range []float64{5, 1, 3, 2, 4} {
		c.Add(v)
	}
	if got := c.Quantile(0.2); got != 1 {
		t.Errorf("Quantile(0.2) = %v, want 1", got)
	}
	if got := c.Quantile(1); got != 5 {
		t.Errorf("Quantile(1) = %v, want 5", got)
	}
}

func TestCDFEmpty(t *testing.T) {
	c := &CDF{}
	if c.P(10) != 0 {
		t.Error("empty CDF P should be 0")
	}
	if c.Mean() != 0 {
		t.Error("empty CDF Mean should be 0")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Quantile on empty CDF did not panic")
		}
	}()
	c.Quantile(0.5)
}

// Property: P is monotone non-decreasing and Quantile inverts it.
func TestCDFMonotoneProperty(t *testing.T) {
	r := NewRNG(99)
	err := quick.Check(func(seed uint32, nRaw uint8) bool {
		n := int(nRaw%100) + 1
		rr := NewRNG(uint64(seed))
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = rr.Normal(0, 100)
		}
		c := NewCDF(samples)
		// Monotonicity at random probes.
		prev := -1.0
		probes := make([]float64, 20)
		for i := range probes {
			probes[i] = r.Normal(0, 150)
		}
		sort.Float64s(probes)
		for _, x := range probes {
			p := c.P(x)
			if p < prev || p < 0 || p > 1 {
				return false
			}
			prev = p
		}
		// Quantile/P round trip: P(Quantile(q)) >= q.
		for _, q := range []float64{0.1, 0.5, 0.9, 1.0} {
			if c.P(c.Quantile(q)) < q-1e-12 {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestKolmogorovSmirnovIdentical(t *testing.T) {
	a := NewCDF([]float64{1, 2, 3, 4, 5, 6, 7, 8})
	b := NewCDF([]float64{1, 2, 3, 4, 5, 6, 7, 8})
	if d := a.KolmogorovSmirnov(b); d > 0.01 {
		t.Fatalf("KS of identical samples = %v", d)
	}
}

func TestKolmogorovSmirnovDisjoint(t *testing.T) {
	a := NewCDF([]float64{1, 2, 3})
	b := NewCDF([]float64{100, 200, 300})
	if d := a.KolmogorovSmirnov(b); d < 0.99 {
		t.Fatalf("KS of disjoint samples = %v, want ~1", d)
	}
}

func TestKolmogorovSmirnovSimilarDistributions(t *testing.T) {
	r := NewRNG(123)
	a, b := &CDF{}, &CDF{}
	for i := 0; i < 5000; i++ {
		a.Add(r.Normal(0, 1))
		b.Add(r.Normal(0, 1))
	}
	if d := a.KolmogorovSmirnov(b); d > 0.05 {
		t.Fatalf("KS of same-distribution samples = %v, want small", d)
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	pts := c.Points(5)
	if len(pts) != 5 {
		t.Fatalf("got %d points", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].Y < pts[i-1].Y {
			t.Fatal("points not monotone")
		}
	}
	if pts[len(pts)-1].Y != 1 {
		t.Fatalf("last point y = %v, want 1", pts[len(pts)-1].Y)
	}
}

func TestCDFRender(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3})
	s := c.Render("test", "km")
	if s == "" || len(s) < 10 {
		t.Fatalf("render too short: %q", s)
	}
	empty := (&CDF{}).Render("none", "")
	if empty != "none: (no samples)" {
		t.Fatalf("empty render = %q", empty)
	}
}

func TestCDFStdDev(t *testing.T) {
	c := NewCDF([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if got := c.StdDev(); math.Abs(got-2) > 1e-9 {
		t.Fatalf("StdDev = %v, want 2", got)
	}
}

// TestCDFSortMergesAdded interleaves Add with queries, so each sort
// merges a sorted tail into a sorted prefix, and requires the samples
// to equal one full sort of everything added (ties and zeros
// included) after every query.
func TestCDFSortMergesAdded(t *testing.T) {
	rng := NewRNG(5)
	c := &CDF{}
	var all []float64
	for round := 0; round < 60; round++ {
		for k := rng.Intn(20); k > 0; k-- {
			x := float64(rng.Intn(30))
			if rng.Float64() < 0.1 {
				x = -x
			}
			c.Add(x)
			all = append(all, x)
		}
		if c.N() == 0 {
			continue
		}
		c.P(10)
		want := NewCDF(all)
		if c.sortedN != want.sortedN || !sort.Float64sAreSorted(c.samples) || len(c.samples) != len(want.samples) {
			t.Fatalf("round %d: sortedN %d of %d, want %d", round, c.sortedN, len(c.samples), want.sortedN)
		}
		for i := range want.samples {
			if c.samples[i] != want.samples[i] {
				t.Fatalf("round %d: sample %d = %v, want %v", round, i, c.samples[i], want.samples[i])
			}
		}
	}
}
