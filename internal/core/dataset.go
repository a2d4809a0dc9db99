// Package core is the paper's primary contribution re-implemented as
// a library: the measurement engine that turns a Helium chain's
// transactions, a p2p peerbook, and IP-level metadata into every table
// and figure of the study — hotspot moves and growth (§4), ownership and resale (§4.3),
// traffic through state channels (§5), ISP/ASN concentration and relay
// topology (§6), incentive audits (§7), and coverage models (§8.2).
package core

import (
	"peoplesnet/internal/chain"
	"peoplesnet/internal/p2p"
)

// HotspotMeta is the side information the paper gathers outside the
// chain: the hotspot's IP-derived ASN and ISP (zannotate + as2org),
// its city, and whether it is NAT'd or cloud-hosted.
type HotspotMeta struct {
	City    string
	Country string
	ISP     string
	ASN     uint32
	NATed   bool
	Cloud   bool
}

// ChainView is the read surface the analyses consume. *chain.Chain
// implements it by scanning blocks; *etl.Store implements it over a
// segmented index, so the same analysis code resolves through posting
// lists and materialized aggregates instead of full rescans.
type ChainView interface {
	// Height of the last block (-1 if empty).
	Height() int64
	// FirstHeight of the first block (-1 if empty).
	FirstHeight() int64
	// TxnCount is the total number of transactions.
	TxnCount() int64
	// TxnMix counts transactions by type.
	TxnMix() map[chain.TxnType]int64
	// Scan visits every transaction in height order until fn returns
	// false.
	Scan(fn func(height int64, t chain.Txn) bool)
	// ScanType visits every transaction of one type in height order.
	ScanType(tt chain.TxnType, fn func(height int64, t chain.Txn) bool)
	// ScanTypes visits the transactions of several types interleaved
	// in chain order (height, then intra-block position). The
	// fold-form analyses use it so batch and live paths consume
	// transactions in the identical order — the property that makes
	// their outputs bit-identical.
	ScanTypes(tts []chain.TxnType, fn func(height int64, t chain.Txn) bool)
}

// Dataset bundles everything the analyses consume.
type Dataset struct {
	Chain    ChainView
	Peerbook *p2p.Peerbook
	// Meta maps hotspot address → measurement metadata. Analyses that
	// need it degrade gracefully when entries are missing.
	Meta map[string]HotspotMeta
	// PoCWeight is the notional number of real PoC transactions each
	// materialized receipt represents (1 for an unsampled chain).
	PoCWeight float64
}

// pocWeight returns the effective sampling weight.
func (d *Dataset) pocWeight() float64 {
	if d.PoCWeight <= 0 {
		return 1
	}
	return d.PoCWeight
}

// ChainSummary reproduces §3's headline numbers: total transactions
// and the PoC share.
type ChainSummary struct {
	TotalTxns    int64
	PoCTxns      int64
	PoCFraction  float64
	ByType       map[chain.TxnType]int64
	FirstBlock   int64
	HighestBlock int64
}

// SummaryState is the §3 transaction-mix fold: raw per-type counts
// plus the height extent. The batch path seeds it from a materialized
// TxnMix in O(types); the live path grows it one block at a time.
// Either way Finalize applies the PoC weighting exactly once, so there
// is a single implementation of the §3 math.
type SummaryState struct {
	counts     map[chain.TxnType]int64
	first, tip int64
}

// NewSummaryState returns an empty fold state.
func NewSummaryState() *SummaryState {
	return &SummaryState{counts: make(map[chain.TxnType]int64), first: -1, tip: -1}
}

// ApplyBlock folds one block's transactions into the mix.
func (st *SummaryState) ApplyBlock(b *chain.Block) {
	if st.first < 0 {
		st.first = b.Height
	}
	st.tip = b.Height
	for _, t := range b.Txns {
		st.counts[t.TxnType()]++
	}
}

// seed installs a precomputed mix and extent (the batch path).
func (st *SummaryState) seed(mix map[chain.TxnType]int64, first, tip int64) {
	for tt, n := range mix {
		st.counts[tt] += n
	}
	st.first, st.tip = first, tip
}

// Finalize materializes the §3 summary, scaling sampled PoC
// transactions by the dataset's weight. The state is not consumed.
func (st *SummaryState) Finalize(pocWeight float64) ChainSummary {
	if pocWeight <= 0 {
		pocWeight = 1
	}
	s := ChainSummary{ByType: make(map[chain.TxnType]int64, len(st.counts)), HighestBlock: st.tip}
	if st.first >= 0 {
		s.FirstBlock = st.first
	}
	for tt, n := range st.counts {
		c := n
		if tt == chain.TxnPoCRequest || tt == chain.TxnPoCReceipt {
			c = int64(float64(n) * pocWeight)
			s.PoCTxns += c
		}
		s.ByType[tt] = c
		s.TotalTxns += c
	}
	if s.TotalTxns > 0 {
		s.PoCFraction = float64(s.PoCTxns) / float64(s.TotalTxns)
	}
	return s
}

// SummarizeChain computes the §3 transaction mix as a fold seeded from
// the view's materialized aggregate (O(types), not O(chain)).
func (d *Dataset) SummarizeChain() ChainSummary {
	st := NewSummaryState()
	st.seed(d.Chain.TxnMix(), d.Chain.FirstHeight(), d.Chain.Height())
	return st.Finalize(d.pocWeight())
}
