package core

import (
	"sort"

	"peoplesnet/internal/chain"
	"peoplesnet/internal/stats"
)

// OwnerProfile is the per-wallet view §4.3 works from.
type OwnerProfile struct {
	Address     string
	Hotspots    int
	HNTBones    int64
	DataPackets int64
	// Cities the owner's hotspots sit in (geographic spread, Fig 6).
	Cities int
	// Class is the §4.3 inference: commercial operators carry data
	// and hold HNT; mining pools hold many hotspots, carry no data,
	// and encash.
	Class InferredClass
}

// InferredClass is the behavioural classification of §4.3.
type InferredClass int

// Inferred owner classes.
const (
	SmallHolder InferredClass = iota // ≤3 hotspots
	LikelyCommercial
	LikelyMiningPool
	LargeHolder // many hotspots, indeterminate
)

func (c InferredClass) String() string {
	switch c {
	case SmallHolder:
		return "small-holder"
	case LikelyCommercial:
		return "likely-commercial"
	case LikelyMiningPool:
		return "likely-mining-pool"
	case LargeHolder:
		return "large-holder"
	default:
		return "unknown"
	}
}

// OwnershipAnalysis reproduces §4.3's decentralization statistics.
type OwnershipAnalysis struct {
	Owners       int
	Hotspots     int
	PerOwner     *stats.Histogram
	OwnOneFrac   float64
	OwnTwoFrac   float64
	OwnThreeFrac float64
	AtMostThree  float64
	FiveOrMore   float64
	MaxOwned     int
	MaxOwner     string
	// Bulk owners sorted by fleet size (input to Fig 6 and the §4.3.1
	// commercial identification).
	Bulk []OwnerProfile
}

// AnalyzeOwnership tallies hotspots per wallet from the ledger and
// classifies bulk owners by the paper's balance/data heuristics.
func (d *Dataset) AnalyzeOwnership() OwnershipAnalysis {
	return AnalyzeOwnershipLedger(d.Chain.Ledger(), d.Meta)
}

// AnalyzeOwnershipLedger is the §4.3 computation over any replayed
// ledger. The live view calls it against its replica ledger — the
// ledger itself is the incremental state, so both paths run this one
// O(hotspots) walk at snapshot time, reading the records in place.
// Ties (largest owner, equal fleet sizes in Bulk) break toward the
// smaller address so the result is identical regardless of visit
// order.
func AnalyzeOwnershipLedger(ledger *chain.Ledger, meta map[string]HotspotMeta) OwnershipAnalysis {
	type acc struct {
		hotspots int
		data     int64
		cities   map[string]bool
	}
	type holding struct {
		owner *acc
		addr  string
	}
	owners := make(map[string]*acc)
	held := make([]holding, 0, ledger.HotspotCount())
	ledger.EachHotspot(func(h *chain.Hotspot) {
		a := owners[h.Owner]
		if a == nil {
			a = &acc{}
			owners[h.Owner] = a
		}
		a.hotspots++
		a.data += h.DataPackets
		held = append(held, holding{a, h.Address})
	})
	// Only bulk owners report a city count, so only their hotspots
	// are looked up in meta.
	for _, hd := range held {
		if hd.owner.hotspots < bulkOwner {
			continue
		}
		if m, ok := meta[hd.addr]; ok {
			if hd.owner.cities == nil {
				hd.owner.cities = make(map[string]bool)
			}
			hd.owner.cities[m.City] = true
		}
	}
	o := OwnershipAnalysis{PerOwner: stats.NewHistogram()}
	for addr, a := range owners {
		o.Owners++
		o.Hotspots += a.hotspots
		o.PerOwner.Observe(a.hotspots)
		if a.hotspots > o.MaxOwned || (a.hotspots == o.MaxOwned && addr < o.MaxOwner) {
			o.MaxOwned = a.hotspots
			o.MaxOwner = addr
		}
		if a.hotspots >= bulkOwner {
			p := OwnerProfile{
				Address:     addr,
				Hotspots:    a.hotspots,
				HNTBones:    ledger.GetAccount(addr).HNTBones,
				DataPackets: a.data,
				Cities:      len(a.cities),
			}
			p.Class = classifyOwner(p)
			o.Bulk = append(o.Bulk, p)
		}
	}
	if o.Owners > 0 {
		o.OwnOneFrac = o.PerOwner.FracExactly(1)
		o.OwnTwoFrac = o.PerOwner.FracExactly(2)
		o.OwnThreeFrac = o.PerOwner.FracExactly(3)
		o.AtMostThree = o.PerOwner.FracAtMost(3)
		o.FiveOrMore = o.PerOwner.FracMoreThan(4)
	}
	sort.Slice(o.Bulk, func(i, j int) bool {
		if o.Bulk[i].Hotspots != o.Bulk[j].Hotspots {
			return o.Bulk[i].Hotspots > o.Bulk[j].Hotspots
		}
		return o.Bulk[i].Address < o.Bulk[j].Address
	})
	return o
}

// bulkOwner is the fleet size from which an owner is profiled in
// OwnershipAnalysis.Bulk.
const bulkOwner = 10

// classifyOwner applies §4.3's inference: data movers holding HNT look
// commercial; sizeable fleets that never engage in data transactions
// look like coverage-mining pools (their balances stay low relative to
// earnings because they encash, but an absolute balance test is too
// brittle — a pool's unswept week of rewards can be large).
func classifyOwner(p OwnerProfile) InferredClass {
	switch {
	case p.DataPackets > 0 && p.HNTBones > 100*chain.BonesPerHNT:
		return LikelyCommercial
	case p.DataPackets == 0 && p.Hotspots >= 20:
		return LikelyMiningPool
	default:
		return LargeHolder
	}
}

// BalanceHistory reconstructs a wallet's HNT balance over time from
// the chain — the "common inference from HNT balances over time"
// methodology of §4.3: application operators' balances climb and stay;
// pool operators' balances sawtooth as they encash.
func (d *Dataset) BalanceHistory(owner string) *stats.TimeSeries {
	ts := stats.NewTimeSeries("HNT balance (bones): " + owner)
	var balance int64
	d.Chain.Scan(func(h int64, t chain.Txn) bool {
		before := balance
		switch v := t.(type) {
		case *chain.SecurityCoinbase:
			if v.Payee == owner {
				balance += v.AmountBones
			}
		case *chain.Rewards:
			for _, e := range v.Entries {
				if e.Account == owner {
					balance += e.AmountBones
				}
			}
		case *chain.Payment:
			if v.Payer == owner {
				balance -= v.AmountBones
			}
			if v.Payee == owner {
				balance += v.AmountBones
			}
		case *chain.TokenBurn:
			if v.Payer == owner {
				balance -= v.AmountBones
			}
		case *chain.TransferHotspot:
			if v.AmountBones > 0 {
				if v.Buyer == owner {
					balance -= v.AmountBones
				}
				if v.Seller == owner {
					balance += v.AmountBones
				}
			}
		case *chain.StakeValidator:
			if v.Owner == owner {
				balance -= chain.StakeValidatorBones
			}
		default:
			// Gateway, PoC, OUI, routing, and state-channel txns move
			// DC or state, never an HNT balance.
		}
		if balance != before {
			ts.Append(h, float64(balance))
		}
		return true
	})
	return ts
}

// Encashes applies the §4.3 heuristic to a balance history: a wallet
// that repeatedly sheds most of its accumulated balance is cashing
// out. It reports how many large drawdowns (≥50% of the running peak)
// occurred.
func Encashes(ts *stats.TimeSeries) (drawdowns int) {
	ts.Sort()
	peak := 0.0
	for _, y := range ts.Ys {
		if y > peak {
			peak = y
		}
		if peak > 0 && y < peak*0.5 {
			drawdowns++
			peak = y // re-arm on the new base
		}
	}
	return
}

// ResaleAnalysis reproduces §4.3.3 / Fig 7.
type ResaleAnalysis struct {
	TotalTransfers      int64
	TransferredHotspots int
	TransferredFrac     float64
	// TransfersPerHotspot is Fig 7a.
	TransfersPerHotspot *stats.Histogram
	AtMostTwoFrac       float64
	// TopTraders is Fig 7b: the most active buyers/sellers.
	TopTraders []TraderProfile
	// PerMonth is Fig 7c: transfer transactions over time (x = month
	// index from genesis).
	PerMonth *stats.TimeSeries
	// ZeroDCFrac: transfers with no on-chain payment (95.8%).
	ZeroDCFrac float64
}

// TraderProfile counts one wallet's resale activity.
type TraderProfile struct {
	Address string
	Bought  int
	Sold    int
}

// ResaleState is the §4.3.3 fold: transfer_hotspot transactions
// tallied per hotspot, per trader, and per month.
type ResaleState struct {
	total      int64
	zero       int64
	perHotspot map[string]int
	traders    map[string]*TraderProfile
	perMonth   map[int64]float64
}

// NewResaleState returns an empty fold state.
func NewResaleState() *ResaleState {
	return &ResaleState{
		perHotspot: make(map[string]int),
		traders:    make(map[string]*TraderProfile),
		perMonth:   make(map[int64]float64),
	}
}

// ApplyTxn folds one transaction; anything but transfer_hotspot is
// ignored.
func (st *ResaleState) ApplyTxn(height int64, t chain.Txn) {
	tr, ok := t.(*chain.TransferHotspot)
	if !ok {
		return
	}
	st.total++
	st.perHotspot[tr.Gateway]++
	if tr.AmountBones == 0 {
		st.zero++
	}
	for _, who := range []struct {
		addr string
		sell bool
	}{{tr.Seller, true}, {tr.Buyer, false}} {
		tp := st.traders[who.addr]
		if tp == nil {
			tp = &TraderProfile{Address: who.addr}
			st.traders[who.addr] = tp
		}
		if who.sell {
			tp.Sold++
		} else {
			tp.Bought++
		}
	}
	st.perMonth[height/(30*chain.BlocksPerDay)]++
}

// Total returns the transfers folded so far.
func (st *ResaleState) Total() int64 { return st.total }

// Finalize materializes Fig 7 against the given total hotspot count
// (the denominator of TransferredFrac comes from the ledger, not the
// fold). The state keeps folding after a snapshot. The trader ranking
// is totally ordered (activity, then address), so the topN cut is
// deterministic.
func (st *ResaleState) Finalize(topN, hotspotCount int) ResaleAnalysis {
	r := ResaleAnalysis{
		TotalTransfers:      st.total,
		TransfersPerHotspot: stats.NewHistogram(),
		PerMonth:            stats.NewTimeSeries("hotspot transfers/month"),
	}
	for _, n := range st.perHotspot {
		r.TransfersPerHotspot.Observe(n)
	}
	r.TransferredHotspots = len(st.perHotspot)
	if hotspotCount > 0 {
		r.TransferredFrac = float64(r.TransferredHotspots) / float64(hotspotCount)
	}
	if r.TotalTransfers > 0 {
		r.ZeroDCFrac = float64(st.zero) / float64(r.TotalTransfers)
		r.AtMostTwoFrac = r.TransfersPerHotspot.FracAtMost(2)
	}
	for m, n := range st.perMonth {
		r.PerMonth.Append(m, n)
	}
	r.PerMonth.Sort()
	for _, tp := range st.traders {
		r.TopTraders = append(r.TopTraders, *tp)
	}
	sort.Slice(r.TopTraders, func(i, j int) bool {
		ti, tj := r.TopTraders[i], r.TopTraders[j]
		if ti.Bought+ti.Sold != tj.Bought+tj.Sold {
			return ti.Bought+ti.Sold > tj.Bought+tj.Sold
		}
		return ti.Address < tj.Address
	})
	if topN > 0 && len(r.TopTraders) > topN {
		r.TopTraders = r.TopTraders[:topN]
	}
	return r
}

// AnalyzeResale folds transfer_hotspot transactions from genesis —
// the identical fold the live view extends per block.
func (d *Dataset) AnalyzeResale(topN int) ResaleAnalysis {
	st := NewResaleState()
	d.Chain.ScanType(chain.TxnTransferHotspot, func(h int64, t chain.Txn) bool {
		st.ApplyTxn(h, t)
		return true
	})
	return st.Finalize(topN, d.Chain.Ledger().HotspotCount())
}
