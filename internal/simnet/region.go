package simnet

// region.go is the worker half of sharded world generation. The world
// is partitioned into regionCount fixed geographic regions; each
// regionSim owns the hotspots deployed in its territory and runs the
// embarrassingly-local daily steps — placement and cheat profiles for
// newly planned hotspots, scheduled moves, PoC challenges, and churn —
// against its own label-split RNG stream, emitting transactions into a
// private per-day buffer. The coordinator (sim.go) dispatches add
// orders before the day's worker phase and merges buffers, activity
// maps, resale plans, and region migrations after it, in fixed region
// order, so the assembled ledger is bit-identical no matter how many
// goroutines execute the regions.
//
// Thread-safety during the worker phase rests on ownership, not locks:
// a region writes only its member hotspots' fields and its own
// buffers; shared structures (cities, markets, owner roster, other
// regions' members) are read-only between day barriers. Everything
// order-dependent — address minting, public-IP allocation, the ledger
// itself — stays on the coordinator.

import (
	"math"

	"peoplesnet/internal/chain"
	"peoplesnet/internal/geo"
	"peoplesnet/internal/ipgeo"
	"peoplesnet/internal/poc"
	"peoplesnet/internal/stats"
)

// dayBuffer accumulates one producer's transactions for the current
// day. Each transaction is hashed at emission — for region buffers
// that happens on the worker goroutine, which is what parallelizes the
// block-hashing cost (previously about a third of Generate) along with
// the simulation steps. Emitted transactions must be fully built:
// mutating one after emit would desynchronize it from its hash.
type dayBuffer struct {
	txns []chain.Txn
	ids  []chain.TxnID
}

func (b *dayBuffer) emit(t chain.Txn) {
	b.txns = append(b.txns, t)
	b.ids = append(b.ids, chain.IDOf(t))
}

func (b *dayBuffer) reset() {
	b.txns = b.txns[:0]
	b.ids = b.ids[:0]
}

// addOrder is the coordinator's instruction to a region: finish a
// newly planned hotspot whose ownership, city, and address were
// decided centrally — place it, roll its antenna and cheat profile,
// attach its line, plan its moves and resales, and emit its
// add/assert transactions.
type addOrder struct {
	hIdx      int
	zeroFirst bool // first assert is the (0,0) GPS artifact
	outlier   bool // the paper's twenty-move outlier hotspot
}

// regionSim is one region's simulation state and per-day outputs.
type regionSim struct {
	idx        int
	cfg        Config
	w          *World
	rng        *stats.RNG
	engine     *poc.Engine
	cliqueCity int

	// hotspots lists member indexes in admission order; membership
	// changes only at day barriers (coordinator dispatch + migration),
	// so per-day iteration order is deterministic.
	hotspots []int

	// inbox holds the day's add orders, dispatched by the coordinator.
	inbox []addOrder

	fleet     *poc.Fleet
	fleetDay  int
	onlineIdx []int

	// cliqueFill tracks unfilled gossip cliques. The clique city
	// belongs to exactly one region, so the counter is region-local.
	cliqueFill map[int]int

	// Per-day outputs, merged by the coordinator at the barrier.
	buf         dayBuffer
	pendingIP   []*HotspotState // reachable attachments awaiting an IP
	emigrants   []int           // members whose Actual left the region
	resalePlans []resaleEvent
	challenges  int64

	dayChallenger map[string]int
	dayBeacons    map[string]int
	dayWitness    map[string]float64
}

func newRegionSim(idx int, s *simulator, master *stats.RNG) *regionSim {
	return &regionSim{
		idx:           idx,
		cfg:           s.cfg,
		w:             s.w,
		rng:           master.Split(regionLabel(idx)),
		engine:        s.engine,
		cliqueCity:    s.cliqueCity,
		cliqueFill:    map[int]int{},
		dayChallenger: map[string]int{},
		dayBeacons:    map[string]int{},
		dayWitness:    map[string]float64{},
	}
}

// regionLabel names a region's RNG stream.
func regionLabel(idx int) string {
	return "region-" + string([]byte{byte('0' + idx/10), byte('0' + idx%10)})
}

// runDay executes the region's share of one simulated day. Called
// concurrently across regions; touches only region-owned state.
func (r *regionSim) runDay(day int) {
	r.buf.reset()
	r.pendingIP = r.pendingIP[:0]
	r.emigrants = r.emigrants[:0]
	r.resalePlans = r.resalePlans[:0]
	r.challenges = 0
	clear(r.dayChallenger)
	clear(r.dayBeacons)
	clear(r.dayWitness)

	for _, o := range r.inbox {
		r.finalizeAdd(day, o)
	}
	r.stepMoves(day)
	r.stepPoC(day)
	r.stepChurn(day)
}

// finalizeAdd is the region half of a hotspot add: placement, ISP
// line, cheats, move/resale plans, and the add/assert transactions.
func (r *regionSim) finalizeAdd(day int, o addOrder) {
	w := r.w
	h := w.Hotspots[o.hIdx]
	owner := w.Owners[h.OwnerIdx]
	city := h.City

	loc := w.placeInCity(r.rng, city)
	if owner.Class == MiningPool {
		// Pools space hotspots out for reward efficiency (§4.3.2):
		// resample until ≥1 km from the pool's other hotspots. Only
		// placed members still in this region are compared — the
		// pool's city cluster; members that moved away are irrelevant
		// and belong to workers that may be mid-write.
		for tries := 0; tries < 8; tries++ {
			ok := true
			for _, idx := range owner.Hotspots {
				other := w.Hotspots[idx]
				if other.region != r.idx || other.AssertNonce == 0 {
					continue
				}
				if geo.HaversineKm(loc, other.Asserted) < 1.0 {
					ok = false
					break
				}
			}
			if ok {
				break
			}
			loc = w.placeInCity(r.rng, city)
		}
	}
	h.Actual = loc

	// ISP line now; the public IP is allocated by the coordinator at
	// the day barrier (allocation order is part of the world).
	h.Attachment = ipgeo.AttachLine(w.market(city), r.rng)
	r.pendingIP = append(r.pendingIP, h)

	// A few percent of handlers install elevated, high-gain antennas,
	// producing the long witness-distance tail of Fig 13.
	h.Elevated = r.rng.Bool(0.04)

	// Cheats.
	if r.rng.Bool(r.cfg.RSSIForgerFrac) {
		h.Cheat.ForgeRSSI = true
	}
	if r.rng.Bool(r.cfg.AbsurdRSSIFrac) {
		h.Cheat.AbsurdRSSI = true
	}
	if city == r.cliqueCity && r.cfg.CliqueCount > 0 {
		for cl := 1; cl <= r.cfg.CliqueCount; cl++ {
			if r.cliqueFill[cl] < r.cfg.CliqueSize {
				r.cliqueFill[cl]++
				h.Cheat.Clique = cl
				break
			}
		}
	}

	r.buf.emit(&chain.AddGateway{Gateway: h.Address, Owner: owner.Address, Maker: maker(day)})

	// First assertion: usually the real spot, occasionally the (0,0)
	// GPS-failure artifact that gets corrected later (§4.1).
	first := loc
	if o.zeroFirst {
		first = geo.Point{}
	}
	h.Asserted = first
	h.Cell = assertCell(first)
	h.AssertNonce = 1
	r.buf.emit(&chain.AssertLocation{
		Gateway: h.Address, Owner: owner.Address, Location: h.Cell, Nonce: 1,
	})

	r.planMoves(h, day, o.zeroFirst, o.outlier)
	r.planResale(h, day)
}

// planMoves schedules a hotspot's relocations at creation time.
func (r *regionSim) planMoves(h *HotspotState, day int, zeroFirst, outlier bool) {
	rng := r.rng
	var moves []moveEvent

	if zeroFirst {
		// The (0,0) artifact is corrected quickly with a real assert.
		moves = append(moves, moveEvent{Day: day + 1 + rng.Intn(5), Dest: h.Actual})
	}

	if !rng.Bool(r.cfg.NeverMoveFrac) {
		// How many (non-correction) moves: most movers move once or
		// twice (the two free asserts), few more than five.
		n := 1
		u := rng.Float64()
		switch {
		case u < 0.62:
			n = 1
		case u < 0.85:
			n = 2
		case u < 0.95:
			n = 3 + rng.Intn(2)
		default:
			n = 5 + rng.Geometric(0.5)
		}
		from := h.Actual
		for i := 0; i < n; i++ {
			dt := moveInterval(rng)
			moveDay := day + dt
			if i > 0 {
				moveDay = moves[len(moves)-1].Day + dt
			}
			var dest geo.Point
			switch {
			case i == 0 && rng.Bool(0.7):
				// Test-then-deploy: a short local hop.
				dest = geo.Destination(from, rng.Float64()*360, 0.2+rng.Float64()*8)
			case rng.Bool(0.1) && r.cfg.ZeroZeroCount > 0 && rng.Bool(0.05):
				// Rare relocation *to* (0,0) (fat-finger / test).
				dest = geo.Point{}
			case rng.Bool(0.12):
				// Long-distance move: resale-driven US→EU export or a
				// cross-country hop (Fig 3c).
				dest = r.longMoveDest(moveDay)
			default:
				dest = geo.Destination(from, rng.Float64()*360, 1+rng.Float64()*40)
			}
			moves = append(moves, moveEvent{Day: moveDay, Dest: dest})
			if !dest.IsZero() {
				from = dest
			}
		}
	}

	// Silent movers relocate physically without asserting (§7.1). The
	// move must land inside the observation window to be detectable.
	if rng.Bool(r.cfg.SilentMoverFrac) && day < r.cfg.Days-60 {
		moveDay := day + 30 + rng.Intn(max(30, r.cfg.Days-day-45))
		moves = append(moves, moveEvent{
			Day: moveDay, Dest: r.longMoveDest(moveDay), Silent: true,
		})
	}

	// The paper's twenty-move outlier, owned by a large account.
	if outlier {
		from := h.Actual
		for i := 0; i < 20; i++ {
			from = geo.Destination(from, rng.Float64()*360, 5+rng.Float64()*300)
			moves = append(moves, moveEvent{Day: day + 2 + i*4, Dest: from})
		}
	}
	// Execution scans the plan in order; keep it day-sorted so a
	// far-future move cannot block earlier ones.
	sortMovesByDay(moves)
	h.Moves = moves
}

// longMoveDest picks a far destination: Europe once international
// sales open, else across the US. Destinations are population-
// weighted — hardware moves to where people (and other hotspots)
// are, which is also what makes silent movers detectable (§7.1's
// examples resurface in New York, not in an empty town).
func (r *regionSim) longMoveDest(day int) geo.Point {
	return r.w.placeInCity(r.rng, r.w.pickCity(r.rng, day, r.rng.Bool(0.7)))
}

// stepMoves executes scheduled relocations of this region's members.
func (r *regionSim) stepMoves(day int) {
	w := r.w
	for _, idx := range r.hotspots {
		h := w.Hotspots[idx]
		if h.MoveIdx >= len(h.Moves) || h.Moves[h.MoveIdx].Day > day {
			continue
		}
		for h.MoveIdx < len(h.Moves) && h.Moves[h.MoveIdx].Day <= day {
			mv := h.Moves[h.MoveIdx]
			h.MoveIdx++
			h.Actual = mv.Dest
			if mv.Dest.IsZero() {
				h.Actual = h.Asserted // (0,0) asserts don't move hardware
			}
			if mv.Silent {
				continue // physical move, no transaction (§7.1)
			}
			h.Asserted = mv.Dest
			h.Cell = assertCell(mv.Dest)
			h.AssertNonce++
			r.buf.emit(&chain.AssertLocation{
				Gateway:  h.Address,
				Owner:    w.Owners[h.OwnerIdx].Address,
				Location: h.Cell,
				Nonce:    h.AssertNonce,
			})
			// Moving to another city re-homes the backhaul. Before the
			// international launch no hardware operates abroad, so a
			// border-adjacent hop cannot re-home to a foreign metro.
			if city := w.nearestCity(mv.Dest); city >= 0 && city != h.City && !mv.Dest.IsZero() {
				if w.Cities[city].Country == "US" || day >= r.cfg.InternationalLaunchDay {
					h.City = city
					h.Attachment = ipgeo.AttachLine(w.market(city), r.rng)
					r.pendingIP = append(r.pendingIP, h)
				}
			}
		}
		// A move (silent ones included — §7.1's detectability depends
		// on the mover resurfacing among its new physical neighbors)
		// may land in another region's territory; hand the hotspot
		// over at the day barrier.
		if regionOfPoint(h.Actual) != r.idx {
			r.emigrants = append(r.emigrants, idx)
		}
	}
}

// planResale schedules ownership transfers (§4.3.3) into the region's
// per-day plan list; the coordinator merges plans into the global
// resale queue at the barrier (buyers are drawn globally).
func (r *regionSim) planResale(h *HotspotState, day int) {
	rng := r.rng
	if !rng.Bool(r.cfg.ResaleFrac) {
		return
	}
	first := r.cfg.ResaleStartDay + rng.Intn(max(1, r.cfg.Days-r.cfg.ResaleStartDay))
	if first <= day {
		first = day + 30
	}
	n := 1
	u := rng.Float64()
	switch {
	case u < 0.70:
		n = 1
	case u < 0.954:
		n = 2
	default:
		n = 3 + rng.Intn(5)
	}
	for i := 0; i < n; i++ {
		r.resalePlans = append(r.resalePlans, resaleEvent{Day: first + i*(20+rng.Intn(60)), Hotspot: h.Index})
	}
}

// rebuildFleet refreshes the region's PoC spatial index (weekly).
func (r *regionSim) rebuildFleet(day int) {
	sites := make([]*poc.Site, 0, len(r.hotspots))
	r.onlineIdx = r.onlineIdx[:0]
	for _, idx := range r.hotspots {
		h := r.w.Hotspots[idx]
		if h.Cloud {
			continue // validators never radio
		}
		site := h.Site(r.w.Cities[h.City].EnvUrban)
		sites = append(sites, site)
		if h.Online {
			r.onlineIdx = append(r.onlineIdx, len(sites)-1)
		}
	}
	r.fleet = poc.NewFleet(sites)
	r.fleetDay = day
}

// stepPoC samples the region's share of the day's challenges.
// Challenger and challengee are drawn from the region's online
// members — the same local structure as a global uniform draw, since
// candidates subsample around the challengee either way, and regions
// are grid cells far wider than the 70 km consider radius.
func (r *regionSim) stepPoC(day int) {
	if len(r.hotspots) < 3 {
		return
	}
	if r.fleet == nil || day-r.fleetDay >= 7 {
		r.rebuildFleet(day)
	}
	if len(r.onlineIdx) < 2 {
		return
	}
	rng := r.rng
	// Challenge volume scales with the region's share of the target
	// fleet, so the global daily volume still tracks network size.
	frac := float64(len(r.hotspots)) / float64(r.cfg.TargetHotspots)
	k := int(math.Ceil(float64(r.cfg.PoCSamplePerDay) * frac))
	usedChallenger := make(map[int]bool, k)
	for i := 0; i < k; i++ {
		ci := r.onlineIdx[rng.Intn(len(r.onlineIdx))]
		ti := r.onlineIdx[rng.Intn(len(r.onlineIdx))]
		if ci == ti || usedChallenger[ci] {
			continue // one challenge per challenger per day (interval rule)
		}
		usedChallenger[ci] = true
		challenger := r.fleet.Sites[ci]
		challengee := r.fleet.Sites[ti]
		rcpt := r.engine.RunChallenge(r.fleet, challenger, challengee, rng)
		// Secret nonces are unique across (day, region, sequence).
		nonce := (int64(day)*regionCount+int64(r.idx))*100_000 + int64(i)
		r.buf.emit(&chain.PoCRequest{Challenger: challenger.Address, SecretHash: chain.SCID(challenger.Address, nonce)})
		r.buf.emit(rcpt.ToTxn())
		r.challenges++

		// Reward accounting, merged (summed) at the barrier.
		r.dayChallenger[challenger.Address]++
		r.dayBeacons[challengee.Address]++
		for _, wt := range rcpt.Witnesses {
			if wt.Valid {
				r.dayWitness[wt.Witness]++
			}
		}
	}
}

// stepChurn applies the daily permanent-churn hazard to the region's
// members so the end-state online fraction matches §4.2 (≈34k of 44k).
// Under the exponential adoption curve (rate 6.7/Days) the mean
// hotspot age at the end is ≈Days/6.7, so a survival target of
// OnlineFraction at mean age needs hazard = −ln(f)·6.7/Days.
func (r *regionSim) stepChurn(day int) {
	hazard := -math.Log(r.cfg.OnlineFraction) * 6.7 / float64(r.cfg.Days)
	for _, idx := range r.hotspots {
		h := r.w.Hotspots[idx]
		if h.Online && !h.Cloud && !h.outage && r.rng.Bool(hazard) {
			h.Online = false
		}
	}
}

// removeMember drops a hotspot from the region's roster, preserving
// admission order. Called only by the coordinator at day barriers.
func (r *regionSim) removeMember(idx int) {
	for i, v := range r.hotspots {
		if v == idx {
			r.hotspots = append(r.hotspots[:i], r.hotspots[i+1:]...)
			return
		}
	}
}

// moveInterval samples days between relocations to match Fig 4:
// 17.9% within a day, 35.8% within a week, 63.2% within a month.
func moveInterval(rng *stats.RNG) int {
	u := rng.Float64()
	switch {
	case u < 0.179:
		return 0 // same day (hour-level spacing)
	case u < 0.358:
		return 1 + rng.Intn(6)
	case u < 0.632:
		return 7 + rng.Intn(23)
	default:
		return 30 + int(rng.Exponential(1.0/60))
	}
}
