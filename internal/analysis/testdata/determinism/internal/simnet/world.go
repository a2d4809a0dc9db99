package simnet

import (
	"math/rand"
	"sort"
	"time"
)

// World is a seeded simulation world whose outputs feed paper tables.
type World struct {
	Seed     int64
	Gateways map[string]int
	Weights  map[string]float64
}

// Stamp reads the wall clock inside a deterministic package: flagged.
func Stamp() time.Time {
	return time.Now() // want "time\.Now reads the wall clock in a deterministic package"
}

// Age uses time.Since, which reads the wall clock too: flagged.
func Age(start time.Time) time.Duration {
	return time.Since(start) // want "time\.Since reads the wall clock in a deterministic package"
}

// Jitter draws from the global math/rand source: flagged.
func Jitter() int {
	return rand.Intn(10) // want "rand\.Intn draws from the global math/rand source"
}

// SeededJitter builds a seeded generator; constructors are tolerated
// and the method call on the instance is the sanctioned path.
func SeededJitter(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(10)
}

// GatewayNames assembles output in map iteration order: flagged.
func (w *World) GatewayNames() []string {
	out := make([]string, 0, len(w.Gateways))
	for name := range w.Gateways { // want "slice assembled in map iteration order"
		out = append(out, name)
	}
	return out
}

// SortedGatewayNames restores determinism by sorting after the loop.
func (w *World) SortedGatewayNames() []string {
	out := make([]string, 0, len(w.Gateways))
	for name := range w.Gateways {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// orderNames is a local sort wrapper; calling it after a map-ranging
// loop counts as restoring determinism.
func orderNames(names []string) {
	sort.Strings(names)
}

// WrappedSortNames sorts through the local helper instead of calling
// package sort inline: not flagged.
func (w *World) WrappedSortNames() []string {
	out := make([]string, 0, len(w.Gateways))
	for name := range w.Gateways {
		out = append(out, name)
	}
	orderNames(out)
	return out
}

// CountGateways ranges over the map without assembling ordered output;
// pure reductions are order-independent and not flagged.
func (w *World) CountGateways() int {
	total := 0
	for _, n := range w.Gateways {
		total += n
	}
	return total
}

// TotalWeight sums floats in map order; the rounding, and so the last
// bits, depend on the order: flagged.
func (w *World) TotalWeight() float64 {
	total := 0.0
	for _, x := range w.Weights {
		total += x // want "float accumulated in map iteration order"
	}
	return total
}

type tally struct{ net float64 }

// NetWeight runs the sum in a field of an outer variable: flagged.
func (w *World) NetWeight() float64 {
	var t tally
	for _, x := range w.Weights {
		t.net -= x // want "float accumulated in map iteration order"
	}
	return t.net
}

// WeightByOwner accumulates per key; each key's sum is independent of
// map order: not flagged.
func (w *World) WeightByOwner(owner map[string]string) map[string]float64 {
	out := make(map[string]float64)
	for name, x := range w.Weights {
		out[owner[name]] += x
	}
	return out
}

// SortedTotalWeight sums over sorted keys: not flagged.
func (w *World) SortedTotalWeight() float64 {
	names := make([]string, 0, len(w.Weights))
	for name := range w.Weights {
		names = append(names, name)
	}
	sort.Strings(names)
	total := 0.0
	for _, name := range names {
		total += w.Weights[name]
	}
	return total
}
