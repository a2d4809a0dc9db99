package simnet

import (
	"sort"

	"peoplesnet/internal/chain"
)

// HotspotNames assembles output inside a map-ordered visitor's
// callback: flagged.
func HotspotNames(l *chain.Ledger) []string {
	var out []string
	l.EachHotspot(func(h *chain.Hotspot) { // want "slice assembled in map iteration order inside a callback of \(\*peoplesnet/internal/chain\.Ledger\)\.EachHotspot"
		out = append(out, h.Address)
	})
	return out
}

// SortedHotspotNames sorts after the visit: not flagged.
func SortedHotspotNames(l *chain.Ledger) []string {
	var out []string
	l.EachHotspot(func(h *chain.Hotspot) {
		out = append(out, h.Address)
	})
	sort.Strings(out)
	return out
}

// OwnerNames goes through a visitor built on EachHotspot: flagged.
func OwnerNames(l *chain.Ledger) []string {
	var out []string
	l.EachOwner(func(owner string) { // want "slice assembled in map iteration order inside a callback of .*EachOwner"
		out = append(out, owner)
	})
	return out
}

// VisitNames goes through a visitor that hands its callback straight
// on: flagged.
func VisitNames(l *chain.Ledger) []string {
	var out []string
	l.Visit(func(h *chain.Hotspot) { // want "slice assembled in map iteration order inside a callback of .*Visit"
		out = append(out, h.Address)
	})
	return out
}

// TotalPower sums floats in visit order: flagged.
func TotalPower(l *chain.Ledger) float64 {
	total := 0.0
	l.EachHotspot(func(h *chain.Hotspot) {
		total += h.Power // want "float accumulated in map iteration order"
	})
	return total
}

// CountOwned only counts, and a callback's own slice is not output:
// not flagged.
func CountOwned(l *chain.Ledger, owner string) int {
	n := 0
	l.EachHotspot(func(h *chain.Hotspot) {
		var seen []string
		seen = append(seen, h.Address)
		if h.Owner == owner {
			n += len(seen)
		}
	})
	return n
}

// LookedUp appends in a callback that runs once: not flagged.
func LookedUp(l *chain.Ledger, addr string) []string {
	var out []string
	l.Get(addr, func(h *chain.Hotspot) {
		out = append(out, h.Owner)
	})
	return out
}

// eachGateway is a visitor of this package: the fact is not needed
// to see it.
func (w *World) eachGateway(fn func(name string, n int)) {
	for name, n := range w.Gateways {
		fn(name, n)
	}
}

// BusyGateways assembles output through the local visitor: flagged.
func (w *World) BusyGateways() []string {
	var out []string
	w.eachGateway(func(name string, n int) { // want "slice assembled in map iteration order inside a callback of .*eachGateway"
		if n > 1 {
			out = append(out, name)
		}
	})
	return out
}
