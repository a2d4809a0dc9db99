package simnet

import (
	"peoplesnet/internal/chain"
	"peoplesnet/internal/econ"
)

// stepTraffic emits the day's state-channel activity (§5). The
// Console (OUI 1/2) closes a channel roughly every two hours; third
// party routers close a few times a day. Each close's packet count is
// the era's traffic apportioned to that window, attributed to the
// hotspots that plausibly ferried it.
func (s *simulator) stepTraffic(day int) {
	consolePkts, thirdPkts, spamPkts := s.packetsPerDay(day)
	if consolePkts+thirdPkts+spamPkts == 0 {
		return
	}
	s.refreshDataHotspots(day)

	// Console: 12 closes per day (every 2 hours ≈ 120 blocks, Fig 8).
	closes := 12
	perClose := consolePkts / int64(closes)
	for i := 0; i < closes; i++ {
		pkts := perClose
		if pkts <= 0 && consolePkts > 0 && i == 0 {
			pkts = consolePkts // tiny days collapse into one close
		}
		if i == 0 {
			// The spam spike rides the Console (users spamming their
			// own devices, §5.3.2); put the day's spam in one channel
			// so the spike is visible per close.
			pkts += spamPkts
		}
		if pkts <= 0 {
			continue
		}
		s.emitChannel(day, s.consoleWallet, 1+uint32(i%2), pkts, spamPkts > 0 && i == 0)
	}

	// Third-party routers.
	if thirdPkts > 0 && len(s.thirdOUIs) > 0 {
		var live []ouiState
		for _, o := range s.thirdOUIs {
			if o.bornDay <= day {
				live = append(live, o)
			}
		}
		for i, o := range live {
			share := thirdPkts / int64(len(live))
			if i == 0 {
				share += thirdPkts % int64(len(live))
			}
			if share <= 0 {
				continue
			}
			s.emitChannel(day, o.wallet, o.oui, share, false)
		}
	}
}

// refreshDataHotspots keeps a pool of hotspots that carry user data:
// commercial fleet hotspots plus a sample of online urban hotspots.
func (s *simulator) refreshDataHotspots(day int) {
	if day%7 != 0 && len(s.dataHotspots) > 0 {
		return
	}
	s.dataHotspots = s.dataHotspots[:0]
	for _, o := range s.w.Owners {
		if o.Class == Commercial {
			s.dataHotspots = append(s.dataHotspots, o.Hotspots...)
		}
	}
	// Plus random online hotspots owned by individuals. Pools and the
	// mega owner do not serve application traffic — that absence is
	// exactly the §4.3 balance/data heuristic the analysis infers
	// their class from.
	want := 40
	for tries := 0; tries < 400 && len(s.dataHotspots) < want+1; tries++ {
		h := s.w.Hotspots[s.rng.Intn(len(s.w.Hotspots))]
		if h.Online && !h.Cloud && s.w.Owners[h.OwnerIdx].Class == Individual {
			s.dataHotspots = append(s.dataHotspots, h.Index)
		}
	}
}

// emitChannel opens and closes one state channel covering pkts
// packets. Open and close land in the same day (the Console's 2-hour
// cadence); longer-lived third-party channels are compressed the same
// way, which only coarsens Fig 8's x-axis, not its shape.
func (s *simulator) emitChannel(day int, wallet string, oui uint32, pkts int64, spam bool) {
	rng := s.rng
	s.scNonce++
	id := chain.SCID(wallet, s.scNonce)
	dc := pkts // ~24-byte packets: 1 DC each
	s.emit(&chain.StateChannelOpen{
		ID: id, Owner: wallet, OUI: oui, AmountDC: dc + dc/10 + 10, ExpireWithin: 240,
	})

	// Attribute packets to hotspots.
	cl := &chain.StateChannelClose{ID: id, Owner: wallet}
	n := 1 + rng.Intn(12)
	if len(s.dataHotspots) == 0 {
		return
	}
	if spam {
		// Spam goes through a handful of spammer-owned hotspots.
		n = 1 + rng.Intn(3)
	}
	assigned := int64(0)
	for i := 0; i < n; i++ {
		hIdx := s.dataHotspots[rng.Intn(len(s.dataHotspots))]
		share := pkts / int64(n)
		if i == n-1 {
			share = pkts - assigned
		}
		if share <= 0 {
			continue
		}
		assigned += share
		cl.Summaries = append(cl.Summaries, chain.SCSummary{
			Hotspot: s.w.Hotspots[hIdx].Address,
			Packets: share,
			DC:      share,
		})
		s.dayDataDC[s.w.Hotspots[hIdx].Address] += share
	}
	s.emit(cl)
}

// stepRewards mints the day's rewards from the sampled activity
// (§2.4), switching HIP10 behaviour on at its activation date.
func (s *simulator) stepRewards(day int) {
	if len(s.dayChallenger)+len(s.dayBeacons)+len(s.dayWitness)+len(s.dayDataDC) == 0 {
		return
	}
	pol := s.rewardPol
	pol.HIP10 = day >= s.dayOf(econ.HIP10Date)
	// The HIP10 cap converts DC to HNT at the oracle price, which
	// follows the speculative run-up (§2.4).
	pol.USDPerHNT = s.prices.At(s.cfg.Start.AddDate(0, 0, day))
	act := econ.EpochActivity{
		ChallengesByChallenger: s.dayChallenger,
		ChallengeesBeaconed:    s.dayBeacons,
		WitnessQuality:         s.dayWitness,
		DataDC:                 s.dayDataDC,
	}
	owner := func(hs string) (string, bool) {
		h, ok := s.c.Ledger().GetHotspot(hs)
		if !ok {
			return "", false
		}
		return h.Owner, true
	}
	entries := pol.ComputeRewards(int64(day), act, owner)
	// Scale to a day's worth of epochs (48 × 30-minute epochs).
	for i := range entries {
		entries[i].AmountBones *= 48
	}
	if len(entries) > 0 {
		s.emit(&chain.Rewards{Epoch: int64(day), Entries: entries})
	}

	// A weekly consensus-group election keeps the maintenance side of
	// the chain populated (§2.2; not analyzed by the study).
	if day%7 == 3 && len(s.w.Hotspots) >= 16 {
		members := make([]string, 0, 16)
		seen := map[int]bool{}
		for tries := 0; tries < 200 && len(members) < 16; tries++ {
			i := s.rng.Intn(len(s.w.Hotspots))
			if seen[i] || !s.w.Hotspots[i].Online {
				continue
			}
			seen[i] = true
			members = append(members, s.w.Hotspots[i].Address)
		}
		if len(members) > 0 {
			s.emit(&chain.ConsensusGroup{Epoch: int64(day), Members: members})
		}
	}

	// Pools and the mega owner encash weekly (§4.3's balance
	// heuristic): sweep their balance to the exchange.
	if day%7 == 6 {
		for _, o := range s.w.Owners {
			if !o.Encashes {
				continue
			}
			bal := s.c.Ledger().GetAccount(o.Address).HNTBones
			// Leave the coinbase fee reserve; sweep earnings only.
			reserve := int64(50 * chain.BonesPerHNT)
			if bal > reserve+chain.BonesPerHNT {
				s.emit(&chain.Payment{Payer: o.Address, Payee: s.exchange, AmountBones: bal - reserve})
			}
		}
	}
}

// setRegionalOutage flips every matching hotspot's liveness; the
// outage flag remembers which hotspots to restore (permanently-churned
// hotspots stay down).
func (s *simulator) setRegionalOutage(ev OutageEvent, down bool) {
	for _, h := range s.w.Hotspots {
		if h.Attachment.ISP == nil || h.Attachment.ISP.Name != ev.ISP {
			continue
		}
		if s.w.Cities[h.City].Name != ev.City {
			continue
		}
		if down && h.Online {
			h.Online = false
			h.outage = true
		} else if !down && h.outage {
			h.Online = true
			h.outage = false
		}
	}
}
