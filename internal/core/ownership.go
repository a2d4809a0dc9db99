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

// OwnershipState is the §4.3 fold. It consumes add_gateway,
// transfer_hotspot, state_channel_close and the HNT-moving transactions
// in chain order and keeps, per hotspot, its owner, data packets and
// meta city; per owner, the fleet size, the data total and a multiset
// of cities; the fleet-size histogram; the set of bulk owners; and
// every account's HNT balance. A hotspot's packets move with it when it
// is sold, as the ledger's per-hotspot counter does. The fold trusts
// the chain's validation: it ignores only what it cannot apply (a
// repeated add_gateway, or a transfer or summary naming an unknown
// hotspot).
type OwnershipState struct {
	meta     map[string]HotspotMeta
	hotspots map[string]heldHotspot
	owners   map[string]*ownerTally
	perOwner *stats.Histogram
	bulk     map[string]*ownerTally // owners with ≥ bulkOwner hotspots
	balances map[string]int64       // HNT bones per account
}

// heldHotspot is one hotspot's slice of OwnershipState.
type heldHotspot struct {
	owner *ownerTally
	data  int64
	city  string
	// located records that the hotspot has meta, so city counts.
	located bool
}

// ownerTally is one owner's slice of OwnershipState.
type ownerTally struct {
	addr     string
	hotspots int
	data     int64
	cities   []cityCount // a multiset: one entry per distinct city
}

type cityCount struct {
	city string
	n    int
}

// NewOwnershipState returns an empty fold state that resolves cities
// through meta (which may be nil, and must not change afterwards).
func NewOwnershipState(meta map[string]HotspotMeta) *OwnershipState {
	return &OwnershipState{
		meta:     meta,
		hotspots: make(map[string]heldHotspot),
		owners:   make(map[string]*ownerTally),
		perOwner: stats.NewHistogram(),
		bulk:     make(map[string]*ownerTally),
		balances: make(map[string]int64),
	}
}

// ownershipTxnTypes are the transaction types OwnershipState consumes.
var ownershipTxnTypes = []chain.TxnType{
	chain.TxnAddGateway, chain.TxnTransferHotspot, chain.TxnStateChannelClose,
	chain.TxnSecurityCoinbase, chain.TxnRewards, chain.TxnPayment,
	chain.TxnTokenBurn, chain.TxnStakeValidator,
}

// ApplyTxn folds one transaction; other types are ignored.
func (st *OwnershipState) ApplyTxn(height int64, t chain.Txn) {
	hntMoves(t, st.credit)
	switch v := t.(type) {
	case *chain.AddGateway:
		if _, dup := st.hotspots[v.Gateway]; dup {
			return
		}
		h := heldHotspot{owner: st.owner(v.Owner)}
		if m, ok := st.meta[v.Gateway]; ok {
			h.city, h.located = m.City, true
		}
		st.hotspots[v.Gateway] = h
		st.gain(h)
	case *chain.TransferHotspot:
		h, ok := st.hotspots[v.Gateway]
		if !ok {
			return
		}
		st.lose(h)
		h.owner = st.owner(v.Buyer)
		st.hotspots[v.Gateway] = h
		st.gain(h)
	case *chain.StateChannelClose:
		for _, s := range v.Summaries {
			h, ok := st.hotspots[s.Hotspot]
			if !ok {
				continue
			}
			h.data += s.Packets
			st.hotspots[s.Hotspot] = h
			h.owner.data += s.Packets
		}
	default:
		// No other transaction changes who owns what or the packets a
		// hotspot carried.
	}
}

// credit adds bones to addr's HNT balance.
func (st *OwnershipState) credit(addr string, bones int64) { st.balances[addr] += bones }

// owner returns addr's tally, creating an empty one.
func (st *OwnershipState) owner(addr string) *ownerTally {
	o := st.owners[addr]
	if o == nil {
		o = &ownerTally{addr: addr}
		st.owners[addr] = o
	}
	return o
}

// gain adds h to its owner's fleet.
func (st *OwnershipState) gain(h heldHotspot) {
	o := h.owner
	if o.hotspots == 0 {
		st.perOwner.Observe(1)
	} else {
		st.perOwner.Shift(o.hotspots, o.hotspots+1)
	}
	o.hotspots++
	o.data += h.data
	if h.located {
		o.addCity(h.city)
	}
	if o.hotspots == bulkOwner {
		st.bulk[o.addr] = o
	}
}

// lose removes h from its owner's fleet; an owner left with none is
// forgotten.
func (st *OwnershipState) lose(h heldHotspot) {
	o := h.owner
	if o.hotspots == 1 {
		st.perOwner.Unobserve(1)
	} else {
		st.perOwner.Shift(o.hotspots, o.hotspots-1)
	}
	if o.hotspots == bulkOwner {
		delete(st.bulk, o.addr)
	}
	o.hotspots--
	o.data -= h.data
	if h.located {
		o.dropCity(h.city)
	}
	if o.hotspots == 0 {
		delete(st.owners, o.addr)
	}
}

func (o *ownerTally) addCity(city string) {
	for i := range o.cities {
		if o.cities[i].city == city {
			o.cities[i].n++
			return
		}
	}
	o.cities = append(o.cities, cityCount{city, 1})
}

func (o *ownerTally) dropCity(city string) {
	for i := range o.cities {
		if o.cities[i].city != city {
			continue
		}
		if o.cities[i].n--; o.cities[i].n == 0 {
			last := len(o.cities) - 1
			o.cities[i] = o.cities[last]
			o.cities = o.cities[:last]
		}
		return
	}
}

// Finalize materializes §4.3. It costs O(bulk owners). Only while no
// owner holds bulkOwner hotspots does the largest-owner tie break walk
// every owner. Ties (largest owner, equal fleet sizes in Bulk) break toward
// the smaller address. The state keeps folding after a snapshot.
func (st *OwnershipState) Finalize() OwnershipAnalysis {
	o := OwnershipAnalysis{
		Owners:   len(st.owners),
		Hotspots: len(st.hotspots),
		PerOwner: st.perOwner.Clone(),
	}
	for _, a := range st.bulk {
		p := OwnerProfile{
			Address:     a.addr,
			Hotspots:    a.hotspots,
			HNTBones:    st.balances[a.addr],
			DataPackets: a.data,
			Cities:      len(a.cities),
		}
		p.Class = classifyOwner(p)
		o.Bulk = append(o.Bulk, p)
	}
	sort.Slice(o.Bulk, func(i, j int) bool {
		if o.Bulk[i].Hotspots != o.Bulk[j].Hotspots {
			return o.Bulk[i].Hotspots > o.Bulk[j].Hotspots
		}
		return o.Bulk[i].Address < o.Bulk[j].Address
	})
	if len(o.Bulk) > 0 {
		o.MaxOwned, o.MaxOwner = o.Bulk[0].Hotspots, o.Bulk[0].Address
	} else {
		for _, a := range st.owners {
			if a.hotspots > o.MaxOwned || (a.hotspots == o.MaxOwned && a.addr < o.MaxOwner) {
				o.MaxOwned, o.MaxOwner = a.hotspots, a.addr
			}
		}
	}
	if o.Owners > 0 {
		o.OwnOneFrac = o.PerOwner.FracExactly(1)
		o.OwnTwoFrac = o.PerOwner.FracExactly(2)
		o.OwnThreeFrac = o.PerOwner.FracExactly(3)
		o.AtMostThree = o.PerOwner.FracAtMost(3)
		o.FiveOrMore = o.PerOwner.FracMoreThan(4)
	}
	return o
}

// AnalyzeOwnership folds ownership and balances from genesis — the
// identical fold the live view extends per block.
func (d *Dataset) AnalyzeOwnership() OwnershipAnalysis {
	st := NewOwnershipState(d.Meta)
	d.Chain.ScanTypes(ownershipTxnTypes, func(h int64, t chain.Txn) bool {
		st.ApplyTxn(h, t)
		return true
	})
	return st.Finalize()
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
	credit := func(addr string, bones int64) {
		if addr == owner {
			balance += bones
		}
	}
	d.Chain.Scan(func(h int64, t chain.Txn) bool {
		before := balance
		hntMoves(t, credit)
		if balance != before {
			ts.Append(h, float64(balance))
		}
		return true
	})
	return ts
}

// hntMoves calls credit once for each HNT balance change t makes, with
// the signed amount in bones, as the ledger applies it. It is core's
// one copy of the HNT rules: BalanceHistory and OwnershipState both
// fold balances through it.
func hntMoves(t chain.Txn, credit func(addr string, bones int64)) {
	switch v := t.(type) {
	case *chain.SecurityCoinbase:
		credit(v.Payee, v.AmountBones)
	case *chain.Rewards:
		for _, e := range v.Entries {
			credit(e.Account, e.AmountBones)
		}
	case *chain.Payment:
		credit(v.Payer, -v.AmountBones)
		credit(v.Payee, v.AmountBones)
	case *chain.TokenBurn:
		credit(v.Payer, -v.AmountBones)
	case *chain.TransferHotspot:
		if v.AmountBones > 0 {
			credit(v.Buyer, -v.AmountBones)
			credit(v.Seller, v.AmountBones)
		}
	case *chain.StakeValidator:
		credit(v.Owner, -chain.StakeValidatorBones)
	default:
		// Gateway, PoC, OUI, routing, and state-channel txns move
		// DC or state, never an HNT balance.
	}
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
// tallied per hotspot (and as a histogram of those tallies), per
// trader, and per month.
type ResaleState struct {
	total      int64
	zero       int64
	perHotspot map[string]int
	perHotHist *stats.Histogram
	traders    map[string]*TraderProfile
	perMonth   map[int64]float64
}

// NewResaleState returns an empty fold state.
func NewResaleState() *ResaleState {
	return &ResaleState{
		perHotspot: make(map[string]int),
		perHotHist: stats.NewHistogram(),
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
	if n := st.perHotspot[tr.Gateway]; n == 0 {
		st.perHotHist.Observe(1)
	} else {
		st.perHotHist.Shift(n, n+1)
	}
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
// (the denominator of TransferredFrac: the add_gateway transactions,
// which this fold does not see). The state keeps folding after a
// snapshot. The trader ranking is totally ordered (activity, then
// address), so the topN cut is deterministic; it is selected without
// sorting every trader.
func (st *ResaleState) Finalize(topN, hotspotCount int) ResaleAnalysis {
	r := ResaleAnalysis{
		TotalTransfers:      st.total,
		TransfersPerHotspot: st.perHotHist.Clone(),
		PerMonth:            stats.NewTimeSeries("hotspot transfers/month"),
		TopTraders:          topTraders(st.traders, topN),
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
	return r
}

// traderBefore is the Fig 7b ranking: more transfers first, then the
// smaller address.
func traderBefore(a, b *TraderProfile) bool {
	if a.Bought+a.Sold != b.Bought+b.Sold {
		return a.Bought+a.Sold > b.Bought+b.Sold
	}
	return a.Address < b.Address
}

// topTraders returns the first n traders in traderBefore order (all of
// them when n <= 0), selected in O(traders · log n).
func topTraders(traders map[string]*TraderProfile, n int) []TraderProfile {
	if n <= 0 || n > len(traders) {
		n = len(traders)
	}
	if n == 0 {
		return nil
	}
	top := stats.NewTopK(n, traderBefore)
	for _, tp := range traders {
		top.Offer(tp)
	}
	out := make([]TraderProfile, n)
	for i, tp := range top.Sorted() {
		out[i] = *tp
	}
	return out
}

// AnalyzeResale folds transfer_hotspot transactions from genesis —
// the identical fold the live view extends per block.
func (d *Dataset) AnalyzeResale(topN int) ResaleAnalysis {
	st := NewResaleState()
	d.Chain.ScanType(chain.TxnTransferHotspot, func(h int64, t chain.Txn) bool {
		st.ApplyTxn(h, t)
		return true
	})
	return st.Finalize(topN, int(d.Chain.TxnMix()[chain.TxnAddGateway]))
}
