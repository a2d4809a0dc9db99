// Package chain holds this fixture's map-ordered visitors. It exports
// their facts; the simnet fixture calls them.
package chain

// Hotspot is one ledger record.
type Hotspot struct {
	Address string
	Owner   string
	Power   float64
}

// Ledger keys its records by address.
type Ledger struct {
	hotspots map[string]*Hotspot
}

// EachHotspot calls fn once per record, in map iteration order.
func (l *Ledger) EachHotspot(fn func(*Hotspot)) {
	for _, h := range l.hotspots {
		fn(h)
	}
}

// EachOwner is a visitor built on a visitor: fn runs inside an
// EachHotspot callback, so it too sees map order.
func (l *Ledger) EachOwner(fn func(owner string)) {
	l.EachHotspot(func(h *Hotspot) {
		fn(h.Owner)
	})
}

// Visit hands fn straight on to EachHotspot: also a visitor.
func (l *Ledger) Visit(fn func(*Hotspot)) {
	l.EachHotspot(fn)
}

// Get calls fn once, on a looked-up record: not a visitor.
func (l *Ledger) Get(addr string, fn func(*Hotspot)) {
	if h, ok := l.hotspots[addr]; ok {
		fn(h)
	}
}
