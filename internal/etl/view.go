package etl

import (
	"peoplesnet/internal/chain"
)

// Height returns the tip block height, or -1 while the store is empty.
func (s *Store) Height() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tip
}

// FirstHeight returns the lowest ingested height, or -1 while empty.
func (s *Store) FirstHeight() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.first
}

// TxnCount returns the total ingested transactions.
func (s *Store) TxnCount() int64 {
	s.ensureAgg()
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.agg.txnCount
}

// TxnMix returns transaction counts by type from the materialized
// aggregate — O(types), not O(chain). On a lazily opened store the
// first call folds outstanding segment contributions (ensureAgg).
func (s *Store) TxnMix() map[chain.TxnType]int64 {
	s.ensureAgg()
	s.mu.RLock()
	defer s.mu.RUnlock()
	mix := make(map[chain.TxnType]int64, len(s.agg.Mix))
	for k, v := range s.agg.Mix {
		mix[k] = v
	}
	return mix
}

// View adapts the store to internal/core's ChainView, so a
// core.Dataset can run every existing analysis against the indexes
// instead of a raw chain.
type View struct {
	s *Store
}

// View returns the core-facing adapter.
func (s *Store) View() *View { return &View{s: s} }

func (v *View) Height() int64                   { return v.s.Height() }
func (v *View) FirstHeight() int64              { return v.s.FirstHeight() }
func (v *View) TxnCount() int64                 { return v.s.TxnCount() }
func (v *View) TxnMix() map[chain.TxnType]int64 { return v.s.TxnMix() }

// Scan visits every transaction in height order.
func (v *View) Scan(fn func(height int64, t chain.Txn) bool) {
	v.s.Scan(All(), Filter{}, fn)
}

// ScanType visits transactions of one type via its posting lists.
func (v *View) ScanType(tt chain.TxnType, fn func(height int64, t chain.Txn) bool) {
	v.s.Scan(All(), Filter{Types: []chain.TxnType{tt}}, fn)
}

// ScanTypes visits transactions of the given types interleaved in
// chain order — the segment scanner merges the per-type posting lists
// by (block, position), so multi-type folds see the exact ingest
// order.
func (v *View) ScanTypes(tts []chain.TxnType, fn func(height int64, t chain.Txn) bool) {
	v.s.Scan(All(), Filter{Types: append([]chain.TxnType(nil), tts...)}, fn)
}
