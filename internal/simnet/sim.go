package simnet

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"peoplesnet/internal/chain"
	"peoplesnet/internal/econ"
	"peoplesnet/internal/geo"
	"peoplesnet/internal/h3lite"
	"peoplesnet/internal/p2p"
	"peoplesnet/internal/poc"
	"peoplesnet/internal/stats"
)

// Result is a generated world: the chain every §4–§7 analysis reads,
// plus the side state the paper obtains from the p2p network and IP
// measurements (peerbook, ISP attachments, city assignment).
type Result struct {
	Cfg      Config
	Chain    *chain.Chain
	World    *World
	Peerbook *p2p.Peerbook

	// MaterializedPoC and NotionalPoC track PoC sampling: each
	// materialized receipt stands for Cfg.PoCWeight real transactions
	// when reproducing §3's transaction mix.
	MaterializedPoC int64
	NotionalPoC     int64

	// OnlineByDay / ConnectedByDay / USOnlineByDay feed Fig 5.
	ConnectedByDay []int
	OnlineByDay    []int
	USOnlineByDay  []int
}

// simulator is the coordinator of sharded generation. It owns every
// order-dependent global: the owner roster and address counter, the
// growth curve, funding, OUI/router and state-channel transactions,
// resale execution, rewards, the ledger itself. Each day it plans the
// day's adds, dispatches them to the per-region workers (region.go),
// waits at the barrier, and merges the regions' outputs in fixed
// region order before flushing blocks.
type simulator struct {
	cfg Config
	w   *World
	c   *chain.Chain
	res *Result

	rng     *stats.RNG // coordinator decision stream
	engine  *poc.Engine
	regions []*regionSim
	workers int

	consoleWallet string
	exchange      string
	thirdOUIs     []ouiState

	cliqueCity     int
	megaOwner      *Owner
	outlierPlanned bool
	pools          []*poolState
	fleetOwners    map[string][]*Owner

	scNonce      int64
	zeroLeft     int
	rewardPol    econ.RewardPolicy
	prices       econ.PriceSeries
	resaleQueue  []resaleEvent
	dataHotspots []int // recent data-ferrying hotspot indexes

	// earlyBuf collects the coordinator's pre-barrier transactions
	// (funding, OUI registrations), lateBuf its post-barrier ones
	// (resales, traffic, rewards). The day's merge order is
	// earlyBuf ++ region buffers (region order) ++ lateBuf, so intra-
	// day dependencies hold: wallets are funded before their hotspots
	// appear, and adds precede the channel closes that pay them.
	earlyBuf dayBuffer
	lateBuf  dayBuffer
	cur      *dayBuffer // where emit() lands in the current phase

	// Merged per-day reward inputs (regions summed at the barrier,
	// traffic DC added by the coordinator).
	dayChallenger map[string]int
	dayBeacons    map[string]int
	dayWitness    map[string]float64
	dayDataDC     map[string]int64

	// flush scratch, reused across days.
	mergedTxns []chain.Txn
	mergedIDs  []chain.TxnID
}

type ouiState struct {
	oui     uint32
	wallet  string
	bornDay int
}

type poolState struct {
	owner   *Owner
	city    int
	target  int
	bornDay int
}

// Generate builds the world. It is deterministic in cfg.Seed — and in
// cfg.Seed only: cfg.Shards changes how many goroutines execute the
// fixed region decomposition, never the output (golden_test.go pins
// this).
func Generate(cfg Config) (*Result, error) {
	if cfg.Days <= 0 || cfg.TargetHotspots <= 0 {
		return nil, fmt.Errorf("simnet: invalid config (days=%d, target=%d)", cfg.Days, cfg.TargetHotspots)
	}
	master := stats.NewRNG(cfg.Seed)
	w := newWorld(cfg)
	c := chain.NewChain(cfg.Start)

	s := &simulator{
		cfg: cfg, w: w, c: c,
		res:           &Result{Cfg: cfg, Chain: c, World: w},
		rng:           master.Split("coordinator"),
		engine:        poc.NewEngine(),
		consoleWallet: "sim1console-wallet",
		exchange:      "sim1exchange",
		fleetOwners:   map[string][]*Owner{},
	}
	// 70 km keeps the elevated-antenna witness tail (Fig 13) while
	// candidate subsampling bounds per-challenge work in dense metros.
	s.engine.ConsiderRadiusKm = 70
	s.engine.MaxCandidates = 150
	s.zeroLeft = cfg.ZeroZeroCount
	s.prices = econ.GeneratePrices(cfg.Start, cfg.Days, master.Split("prices"))
	s.rewardPol = econ.RewardPolicy{
		Split:             econ.DefaultSplit(),
		USDPerHNT:         2, // updated daily from the price series
		SecuritiesAccount: "sim1helium-securities",
	}

	s.workers = cfg.Shards
	if s.workers <= 0 {
		s.workers = runtime.GOMAXPROCS(0)
	}
	if s.workers > regionCount {
		s.workers = regionCount
	}

	// Genesis block: console OUIs, funding, exchange.
	genesis := []chain.Txn{
		&chain.DCCoinbase{Payee: s.consoleWallet, AmountDC: 1 << 50},
		&chain.SecurityCoinbase{Payee: s.exchange, AmountBones: 1 << 50},
		&chain.OUIRegistration{OUI: 1, Owner: s.consoleWallet},
		&chain.OUIRegistration{OUI: 2, Owner: s.consoleWallet},
	}
	if _, err := c.AppendBlock(1, genesis); err != nil {
		return nil, err
	}

	// Third-party OUIs appear over the timeline; OUI numbers are
	// handed out in registration (birth) order.
	ouiSpan := max(1, cfg.Days-150)
	for i := 0; i < cfg.ThirdPartyOUIs; i++ {
		s.thirdOUIs = append(s.thirdOUIs, ouiState{
			wallet:  fmt.Sprintf("sim1router-%02d", i),
			bornDay: min(cfg.Days-1, 100+s.rng.Intn(ouiSpan)),
		})
	}
	sort.Slice(s.thirdOUIs, func(i, j int) bool { return s.thirdOUIs[i].bornDay < s.thirdOUIs[j].bornDay })
	for i := range s.thirdOUIs {
		s.thirdOUIs[i].oui = uint32(3 + i)
	}

	// Mining pools.
	poolCities := []string{"Denver", "Denver", "Phoenix", "Atlanta", "Seattle", "Dallas"}
	for i := 0; i < cfg.PoolCount; i++ {
		cityName := poolCities[i%len(poolCities)]
		cityIdx, ok := w.cityByName(cityName)
		if !ok {
			cityIdx = w.usCityIdx[0]
		}
		s.pools = append(s.pools, &poolState{
			city: cityIdx, target: cfg.PoolTargetSize, bornDay: 250 + s.rng.Intn(200),
		})
	}
	// A clique city for colluding witnesses.
	s.cliqueCity, _ = w.cityByName("Phoenix")

	// The regions. Each gets its own labelled RNG stream split from
	// the master seed, so its randomness is identical whether one
	// goroutine runs all regions or each has its own.
	s.regions = make([]*regionSim, regionCount)
	for i := range s.regions {
		s.regions[i] = newRegionSim(i, s, master)
	}

	// The daily loop: plan (coordinator) → simulate (region workers)
	// → merge and settle (coordinator) → flush blocks.
	for day := 0; day < cfg.Days; day++ {
		s.beginDay()
		s.stepGrowth(day)
		s.stepOUIs(day)
		s.runRegions(day)
		s.mergeRegions(day)
		s.stepResale(day)
		s.stepTraffic(day)
		s.stepRewards(day)
		s.stepOutages(day)
		if err := s.flushDay(day); err != nil {
			return nil, fmt.Errorf("simnet: day %d: %w", day, err)
		}
		s.recordDay(day)
	}
	s.buildPeerbook(master.Split("peerbook"))
	return s.res, nil
}

func (s *simulator) beginDay() {
	s.earlyBuf.reset()
	s.lateBuf.reset()
	s.cur = &s.earlyBuf
	for _, r := range s.regions {
		r.inbox = r.inbox[:0]
	}
	s.dayChallenger = map[string]int{}
	s.dayBeacons = map[string]int{}
	s.dayWitness = map[string]float64{}
	s.dayDataDC = map[string]int64{}
}

// emit schedules a coordinator transaction for the current day, into
// the buffer of the current phase (earlyBuf before the worker barrier,
// lateBuf after). Emission order is preserved into block order, so
// intra-day dependencies (a funding coinbase before the add it pays
// for, an add before the close that pays its hotspot) always hold.
func (s *simulator) emit(t chain.Txn) {
	s.cur.emit(t)
}

// runRegions executes the day's worker phase: every region's runDay,
// on up to s.workers goroutines. Regions are claimed from an atomic
// counter — which regions run on which goroutine varies, but regions
// share no mutable state and each owns its RNG stream, so scheduling
// cannot affect the outputs.
func (s *simulator) runRegions(day int) {
	if s.workers <= 1 {
		for _, r := range s.regions {
			r.runDay(day)
		}
		return
	}
	var next atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < s.workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := int(next.Add(1)) - 1
				if n >= len(s.regions) {
					return
				}
				s.regions[n].runDay(day)
			}
		}()
	}
	wg.Wait()
}

// mergeRegions settles the worker phase at the day barrier, in fixed
// region order: allocate the deferred public IPs, sum the reward
// accounting, queue the resale plans, count PoC, and apply region
// migrations. After this the coordinator's post-phase (resale,
// traffic, rewards) sees a consistent world.
func (s *simulator) mergeRegions(day int) {
	s.cur = &s.lateBuf
	for _, r := range s.regions {
		for _, h := range r.pendingIP {
			s.w.Registry.AssignIP(&h.Attachment)
		}
		s.resaleQueue = append(s.resaleQueue, r.resalePlans...)
		s.res.MaterializedPoC += 2 * r.challenges
		s.res.NotionalPoC += r.challenges * int64(2*s.cfg.PoCWeight)
		for a, n := range r.dayChallenger {
			s.dayChallenger[a] += n
		}
		for a, n := range r.dayBeacons {
			s.dayBeacons[a] += n
		}
		for a, q := range r.dayWitness {
			s.dayWitness[a] += q
		}
	}
	// Migrations last, so a region's emigrant list still refers to the
	// membership its worker saw.
	for _, r := range s.regions {
		for _, idx := range r.emigrants {
			h := s.w.Hotspots[idx]
			nr := regionOfPoint(h.Actual)
			if nr == h.region {
				continue
			}
			s.regions[h.region].removeMember(idx)
			s.regions[nr].hotspots = append(s.regions[nr].hotspots, idx)
			h.region = nr
		}
	}
}

// stepOutages applies any §6.1 regional ISP outage transitions for the
// day. Outage injection consumes no randomness, so adding an
// OutageEvent perturbs nothing else.
func (s *simulator) stepOutages(day int) {
	for _, ev := range s.cfg.Outages {
		switch day {
		case ev.Day:
			s.setRegionalOutage(ev, true)
		case ev.Day + max(1, ev.Days):
			s.setRegionalOutage(ev, false)
		}
	}
}

// flushDay merges the day's buffers — coordinator early, regions in
// region order, coordinator late — and appends the sequence as hourly
// blocks, mapping merged index i of n to hour i·24/n. Transaction IDs
// were computed at emission (on the worker goroutines for region
// transactions), so the append path only hashes block headers; the
// chain keeps its own copy of each block's IDs, since mergedIDs is
// reused every day.
func (s *simulator) flushDay(day int) error {
	s.mergedTxns = s.mergedTxns[:0]
	s.mergedIDs = s.mergedIDs[:0]
	appendBuf := func(b *dayBuffer) {
		s.mergedTxns = append(s.mergedTxns, b.txns...)
		s.mergedIDs = append(s.mergedIDs, b.ids...)
	}
	appendBuf(&s.earlyBuf)
	for _, r := range s.regions {
		appendBuf(&r.buf)
	}
	appendBuf(&s.lateBuf)

	n := len(s.mergedTxns)
	if n == 0 {
		return nil
	}
	i := 0
	for i < n {
		hour := i * 24 / n
		j := i
		for j < n && j*24/n == hour {
			j++
		}
		txns := append([]chain.Txn(nil), s.mergedTxns[i:j]...)
		height := int64(day*24+hour)*60 + 2 // +2 clears the genesis block at height 1
		if _, err := s.c.AppendBlockHashed(height, txns, s.mergedIDs[i:j]); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// growthAdds returns how many hotspots arrive on the given day:
// exponential growth calibrated to reach TargetHotspots, with
// batch-arrival noise (Fig 5's spiky daily series).
func (s *simulator) growthAdds(day int) int {
	days := float64(s.cfg.Days)
	r := 6.7 / days // ⇒ cumulative ratio matching the paper's curve
	norm := (math.Exp(r*days) - 1) / r
	base := float64(s.cfg.TargetHotspots) * math.Exp(r*float64(day)) / norm
	// Batch noise: supply-constrained shipments land in lumps. The
	// 1.15 divisor removes the lumps' mean so cumulative adds still
	// land on TargetHotspots.
	lump := 1.0
	if s.rng.Bool(0.1) {
		lump = 1.5 + s.rng.Float64()*2
	}
	return s.rng.Poisson(base * lump / 1.15)
}

func (s *simulator) recordDay(day int) {
	connected := len(s.w.Hotspots)
	online, usOnline := 0, 0
	for _, h := range s.w.Hotspots {
		if h.Online {
			online++
			if s.w.Cities[h.City].Country == "US" {
				usOnline++
			}
		}
	}
	s.res.ConnectedByDay = append(s.res.ConnectedByDay, connected)
	s.res.OnlineByDay = append(s.res.OnlineByDay, online)
	s.res.USOnlineByDay = append(s.res.USOnlineByDay, usOnline)
}

// buildPeerbook snapshots the final p2p swarm: public hotspots listen
// on /ip4 addresses; NAT'd ones pick a random public relay (§6.2).
func (s *simulator) buildPeerbook(rng *stats.RNG) {
	pb := p2p.NewPeerbook()
	var public []p2p.Entry
	var nated []*HotspotState
	for _, h := range s.w.Hotspots {
		if !h.Online {
			continue
		}
		h.PeerID = p2p.PeerIDFrom(h.Address)
		if h.Attachment.NATed || !h.Attachment.PublicIP.IsValid() {
			nated = append(nated, h)
			continue
		}
		e := p2p.Entry{
			Peer:     h.PeerID,
			Addr:     p2p.ListenAddr{IP: h.Attachment.PublicIP, Port: h.Attachment.Port},
			Location: h.Asserted,
		}
		public = append(public, e)
		pb.Put(e)
	}
	// Relay choice is uniform over public peers (the paper's Fig 11
	// conclusion) except for a thin popularity bias: a handful of
	// nodes end up relaying dozens of peers for reasons the paper
	// could not determine (Fig 10, max 46). Since the popular set is
	// itself geographically random, the distance CDF stays
	// indistinguishable from uniform.
	sel := p2p.RandomRelay{}
	var popular []p2p.PeerID
	for i := 0; i < 10 && i < len(public); i++ {
		popular = append(popular, public[rng.Intn(len(public))].Peer)
	}
	for _, h := range nated {
		var relay p2p.PeerID
		if len(popular) > 0 && rng.Bool(0.012) {
			relay = popular[rng.Intn(len(popular))]
		} else {
			var ok bool
			relay, ok = sel.Select(h.Asserted, public, rng)
			if !ok {
				continue
			}
		}
		pb.Put(p2p.Entry{
			Peer:     h.PeerID,
			Addr:     p2p.ListenAddr{Relay: relay, Peer: h.PeerID},
			Location: h.Asserted,
		})
	}
	s.res.Peerbook = pb
}

// assertCell encodes a point at the on-chain resolution.
func assertCell(p geo.Point) h3lite.Cell {
	return h3lite.FromLatLon(p, 12)
}

// sortMovesByDay day-sorts a move plan (stable: planned order breaks
// same-day ties).
func sortMovesByDay(moves []moveEvent) {
	sort.SliceStable(moves, func(i, j int) bool { return moves[i].Day < moves[j].Day })
}
