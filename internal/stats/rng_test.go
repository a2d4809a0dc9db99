package stats

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("same-seed generators diverged at step %d: %d vs %d", i, av, bv)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical outputs", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	a := NewRNG(7)
	child := a.Split("model")
	// The child must be deterministic given the parent's seed.
	b := NewRNG(7)
	child2 := b.Split("model")
	for i := 0; i < 100; i++ {
		if child.Uint64() != child2.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
}

// TestSplitStableAcrossDraws is the property the sharded simulator
// depends on: a labelled split yields the same stream no matter how
// much of the parent's own stream has been consumed, so worker
// scheduling cannot perturb any shard's randomness.
func TestSplitStableAcrossDraws(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 137; i++ {
		b.Uint64() // advance b's stream only
	}
	b.Split("unrelated") // interleave an unrelated split too
	ca, cb := a.Split("region-07"), b.Split("region-07")
	for i := 0; i < 1000; i++ {
		if ca.Uint64() != cb.Uint64() {
			t.Fatalf("same-label splits diverged at step %d", i)
		}
	}
	// Splitting must not consume the parent stream: a continues
	// exactly where a same-seed generator that never split would be.
	c := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != c.Uint64() {
			t.Fatalf("Split consumed the parent stream (step %d)", i)
		}
	}
}

func TestSplitLabelAndParentIndependence(t *testing.T) {
	matches := func(x, y *RNG) int {
		same := 0
		for i := 0; i < 200; i++ {
			if x.Uint64() == y.Uint64() {
				same++
			}
		}
		return same
	}
	// Distinct labels from one parent decorrelate.
	a := NewRNG(5)
	if n := matches(a.Split("region-00"), a.Split("region-01")); n > 2 {
		t.Fatalf("distinct labels matched %d/200 outputs", n)
	}
	// Same label from distinct parents decorrelates.
	if n := matches(NewRNG(5).Split("x"), NewRNG(6).Split("x")); n > 2 {
		t.Fatalf("distinct parents matched %d/200 outputs", n)
	}
	// A child decorrelates from its parent's own stream.
	p := NewRNG(5)
	if n := matches(p.Split("x"), NewRNG(5)); n > 2 {
		t.Fatalf("child matched parent %d/200 outputs", n)
	}
	// Nested splits are order-sensitive (labels are a path, not a set).
	ab := NewRNG(5).Split("a").Split("b")
	ba := NewRNG(5).Split("b").Split("a")
	if n := matches(ab, ba); n > 2 {
		t.Fatalf("nested split order ignored: %d/200 matches", n)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(4)
	sum := 0.0
	n := 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(5)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) only produced %d distinct values in 1000 draws", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(6)
	n := 50000
	sum, ss := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal(10, 3)
		sum += v
		ss += v * v
	}
	mean := sum / float64(n)
	variance := ss/float64(n) - mean*mean
	if math.Abs(mean-10) > 0.1 {
		t.Errorf("normal mean = %v, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-3) > 0.1 {
		t.Errorf("normal stddev = %v, want ~3", math.Sqrt(variance))
	}
}

func TestExponentialMean(t *testing.T) {
	r := NewRNG(8)
	n := 50000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exponential(0.5)
	}
	mean := sum / float64(n)
	if math.Abs(mean-2) > 0.1 {
		t.Fatalf("Exponential(0.5) mean = %v, want ~2", mean)
	}
}

func TestParetoMinimum(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		v := r.Pareto(1.5, 2)
		if v < 1.5 {
			t.Fatalf("Pareto below xm: %v", v)
		}
	}
}

func TestPoissonMean(t *testing.T) {
	r := NewRNG(10)
	for _, mean := range []float64{0.5, 3, 20, 200} {
		n := 20000
		sum := 0
		for i := 0; i < n; i++ {
			sum += r.Poisson(mean)
		}
		got := float64(sum) / float64(n)
		if math.Abs(got-mean) > mean*0.05+0.1 {
			t.Errorf("Poisson(%v) sample mean = %v", mean, got)
		}
	}
}

func TestPoissonZeroMean(t *testing.T) {
	r := NewRNG(11)
	if r.Poisson(0) != 0 || r.Poisson(-1) != 0 {
		t.Fatal("Poisson of non-positive mean should be 0")
	}
}

func TestGeometricMean(t *testing.T) {
	r := NewRNG(12)
	p := 0.25
	n := 50000
	sum := 0
	for i := 0; i < n; i++ {
		sum += r.Geometric(p)
	}
	got := float64(sum) / float64(n)
	want := (1 - p) / p // mean of failures-before-success
	if math.Abs(got-want) > 0.1 {
		t.Fatalf("Geometric(%v) mean = %v, want ~%v", p, got, want)
	}
}

func TestWeightedChoiceRespectsWeights(t *testing.T) {
	r := NewRNG(16)
	counts := [3]int{}
	for i := 0; i < 30000; i++ {
		counts[r.WeightedChoice([]float64{1, 0, 9})]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight index chosen %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 7 || ratio > 11 {
		t.Fatalf("weight ratio = %v, want ~9", ratio)
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(17)
	n, hits := 100000, 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / float64(n)
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) hit rate = %v", frac)
	}
}
