package peoplesnet

// The benchmark harness regenerates every table and figure of the
// paper's evaluation. Each benchmark builds (or reuses) a deterministic
// world, runs the corresponding analysis, and prints the same rows or
// series the paper reports, with the paper's values inline. Run with:
//
//	go test -bench=. -benchmem
//
// Shapes — who wins, by what factor, where the crossovers fall — are
// the reproduction target; absolute magnitudes scale with the world
// size (benchmarks default to the 1/20-scale world; set
// PEOPLESNET_BENCH_SCALE=paper for the full 44k-hotspot run).

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"

	"peoplesnet/internal/chain"
	"peoplesnet/internal/core"
	"peoplesnet/internal/coverage"
	"peoplesnet/internal/fieldtest"
	"peoplesnet/internal/geo"
	"peoplesnet/internal/live"
	"peoplesnet/internal/p2p"
	"peoplesnet/internal/poc"
	"peoplesnet/internal/simnet"
	"peoplesnet/internal/stats"
)

// benchWorld caches one generated world across all benchmarks.
var (
	benchOnce  sync.Once
	benchRes   *World
	benchStudy *Study
	benchErr   error
)

func benchConfig() WorldConfig {
	if os.Getenv("PEOPLESNET_BENCH_SCALE") == "paper" {
		return PaperWorld(2021)
	}
	return SmallWorld(2021)
}

func world(b *testing.B) (*World, *Study) {
	b.Helper()
	benchOnce.Do(func() {
		benchRes, benchErr = Simulate(benchConfig())
		if benchErr == nil {
			benchStudy = Measure(benchRes)
		}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchRes, benchStudy
}

// report prints a figure's reproduction block once per benchmark.
func report(b *testing.B, lines ...string) {
	b.Helper()
	if testing.Verbose() || true {
		for _, l := range lines {
			fmt.Printf("    %s\n", l)
		}
	}
}

// ---------------------------------------------------------------------------
// §3

func BenchmarkSection3_TxnMix(b *testing.B) {
	w, _ := world(b)
	var s core.ChainSummary
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := core.FromSimulation(w)
		s = d.SummarizeChain()
	}
	b.StopTimer()
	report(b,
		fmt.Sprintf("§3: %d txns (notional), PoC %.2f%%  [paper: 59,092,640 / 99.2%%]",
			s.TotalTxns, s.PoCFraction*100))
}

// ---------------------------------------------------------------------------
// §4 — Figures 2–7

func BenchmarkFigure2_MovesPerHotspot(b *testing.B) {
	w, _ := world(b)
	d := core.FromSimulation(w)
	var m core.MoveAnalysis
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m = d.AnalyzeMoves()
	}
	b.StopTimer()
	report(b,
		fmt.Sprintf("Fig 2: never %.1f%%  ≤2 %.1f%%  >5 %.2f%%  max %d  [paper: 71.9%% / high / low / 20]",
			m.NeverMovedFrac*100, m.AtMostTwoFrac*100, m.MoreThanFive*100, m.MaxMoves))
}

func BenchmarkFigure3_MoveDistances(b *testing.B) {
	w, _ := world(b)
	d := core.FromSimulation(w)
	var m core.MoveAnalysis
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m = d.AnalyzeMoves()
	}
	b.StopTimer()
	intl := 0
	for _, mv := range m.LongMoves {
		if !geo.InConus(mv.To) && geo.InConus(mv.From) {
			intl++
		}
	}
	report(b,
		fmt.Sprintf("Fig 3: median move %.1f km, >500 km moves %d (%d leaving CONUS)",
			m.DistancesKm.Median(), len(m.LongMoves), intl),
		fmt.Sprintf("       (0,0): %d asserts, %.0f%% first-time  [paper: 372 / 89%%]",
			m.ZeroAssertions, m.ZeroFirstFrac*100))
}

func BenchmarkFigure4_RelocationIntervals(b *testing.B) {
	w, _ := world(b)
	d := core.FromSimulation(w)
	var m core.MoveAnalysis
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m = d.AnalyzeMoves()
	}
	b.StopTimer()
	report(b,
		fmt.Sprintf("Fig 4: within day %.1f%% / week %.1f%% / month %.1f%%  [paper: 17.9 / 35.8 / 63.2%%]",
			m.WithinDayFrac*100, m.WithinWeekFrac*100, m.WithinMoFrac*100))
}

func BenchmarkFigure5_Growth(b *testing.B) {
	w, _ := world(b)
	d := core.FromSimulation(w)
	var g core.GrowthAnalysis
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g = d.AnalyzeGrowth()
	}
	b.StopTimer()
	days := len(w.ConnectedByDay)
	mid := w.ConnectedByDay[days*587/667]
	end := w.ConnectedByDay[days-1]
	online := w.OnlineByDay[days-1]
	us := w.USOnlineByDay[days-1]
	report(b,
		fmt.Sprintf("Fig 5: connected %d (day 587-eq: %d)  online %d  US %d / intl %d",
			end, mid, online, us, online-us),
		fmt.Sprintf("       [paper: 44k (20k on Mar 7), 34k online, 20k US / 14k intl], adds/day end %.0f", g.FinalRate))
}

func BenchmarkFigure6_BulkOwner(b *testing.B) {
	w, s := world(b)
	var spread int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spread = 0
		// Geographic spread of the largest dataless owner (Fig 6 maps
		// one such fleet across many cities).
		for _, o := range s.Ownership.Bulk {
			if o.Class == core.LikelyMiningPool || o.Class == core.LargeHolder {
				if o.Cities > spread {
					spread = o.Cities
				}
			}
		}
	}
	b.StopTimer()
	_ = w
	report(b,
		fmt.Sprintf("Fig 6: largest non-data fleet spans %d cities; %d bulk owners total",
			spread, len(s.Ownership.Bulk)))
}

func BenchmarkSection43_Ownership(b *testing.B) {
	w, _ := world(b)
	d := core.FromSimulation(w)
	var o core.OwnershipAnalysis
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o = d.AnalyzeOwnership()
	}
	b.StopTimer()
	report(b,
		fmt.Sprintf("§4.3: %d owners, own-1 %.1f%%, own-2 %.1f%%, own-3 %.1f%%, ≤3 %.1f%%, max %d",
			o.Owners, o.OwnOneFrac*100, o.OwnTwoFrac*100, o.OwnThreeFrac*100, o.AtMostThree*100, o.MaxOwned),
		"      [paper: ~9,000 owners; 62.1 / 14.6 / 7.0%; 83.7% ≤3; max 1,903]")
}

func BenchmarkFigure7_ResaleMarket(b *testing.B) {
	w, _ := world(b)
	d := core.FromSimulation(w)
	var r core.ResaleAnalysis
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r = d.AnalyzeResale(200)
	}
	b.StopTimer()
	report(b,
		fmt.Sprintf("Fig 7: %d transfers, %.1f%% of hotspots, ≤2 transfers %.1f%%, zero-DC %.1f%%",
			r.TotalTransfers, r.TransferredFrac*100, r.AtMostTwoFrac*100, r.ZeroDCFrac*100),
		"      [paper: 3,819 / 8.6% / 95.4% / 95.8%]")
}

// ---------------------------------------------------------------------------
// §5 — Figure 8

func BenchmarkFigure8_DataTraffic(b *testing.B) {
	w, _ := world(b)
	d := core.FromSimulation(w)
	var t core.TrafficAnalysis
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t = d.AnalyzeTraffic()
	}
	b.StopTimer()
	report(b,
		fmt.Sprintf("Fig 8: console SC share %.2f%%, final %.1f pkt/s, spike days %d–%d",
			t.ConsoleShare*100, t.FinalPktPerSec,
			t.SpikeStartBlock/chain.BlocksPerDay, t.SpikeEndBlock/chain.BlocksPerDay),
		"      [paper: 81.18% console; ≈14 pkt/s; spike Aug 12–Sep 6 2020 = days 380–405]")
}

// ---------------------------------------------------------------------------
// §6 — Table 1, Figures 9–11

func BenchmarkTable1_TopISPs(b *testing.B) {
	w, _ := world(b)
	d := core.FromSimulation(w)
	var a core.ISPAnalysis
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a = d.AnalyzeISPs(15)
	}
	b.StopTimer()
	lines := []string{"Table 1 (top 15 ISPs by public hotspots; paper: Spectrum 2497, Comcast 1922, Verizon 1590, …):"}
	for i, row := range a.TopISPs {
		lines = append(lines, fmt.Sprintf("  %2d. %-14s %5d", i+1, row.ISP, row.Hotspots))
	}
	report(b, lines...)
}

func BenchmarkFigure9_ASNDistribution(b *testing.B) {
	w, _ := world(b)
	d := core.FromSimulation(w)
	var a core.ISPAnalysis
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a = d.AnalyzeISPs(0)
	}
	b.StopTimer()
	tail := 0
	for _, r := range a.ASNs {
		if r.Hotspots <= 2 {
			tail++
		}
	}
	report(b,
		fmt.Sprintf("Fig 9: %d ASNs, head %d hotspots, %d ASNs with ≤2 hotspots  [paper: 454 ASNs, long tail]",
			len(a.ASNs), a.ASNs[0].Hotspots, tail))
}

func BenchmarkSection61_CityASN(b *testing.B) {
	w, _ := world(b)
	d := core.FromSimulation(w)
	var a core.ISPAnalysis
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a = d.AnalyzeISPs(0)
	}
	b.StopTimer()
	// Spectrum outage exposure in the city where it is biggest.
	worst := core.OutageImpact{}
	cities := map[string]bool{}
	for _, m := range d.Meta {
		if m.ISP == "Spectrum" && !cities[m.City] {
			cities[m.City] = true
			if o := d.AssessOutage(m.City, "Spectrum"); o.Affected > worst.Affected {
				worst = o
			}
		}
	}
	report(b,
		fmt.Sprintf("§6.1: %d cities, %d single-ASN (%d with ≥2 hotspots)  [paper: 3,958 / 1,588 / 414]",
			a.Cities, a.SingleASNCities, a.SingleASNMulti),
		fmt.Sprintf("      Spectrum outage worst case: %d/%d hotspots (%.0f%%) in %s  [paper: 291/333 = 87%% in LA]",
			worst.Affected, worst.CityHotspots, worst.Fraction*100, worst.City))
}

func BenchmarkFigure10_RelayFanout(b *testing.B) {
	w, _ := world(b)
	var st p2p.RelayStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st = p2p.AnalyzeRelays(w.Peerbook)
	}
	b.StopTimer()
	report(b,
		fmt.Sprintf("Fig 10: %d peers, %.2f%% relayed, max fan-out %d  [paper: 27,281 / 55.48%% / 46]",
			st.Total, st.RelayedFraction()*100, st.MaxFanOut))
}

func BenchmarkFigure11_RelayDistance(b *testing.B) {
	w, _ := world(b)
	d := core.FromSimulation(w)
	var a core.RelayAnalysis
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a = d.AnalyzeRelays(5, stats.NewRNG(77))
	}
	b.StopTimer()
	report(b,
		fmt.Sprintf("Fig 11: relay→peer distance min %.2f km, median %.0f km, max %.0f km",
			a.Stats.DistancesKm.Min(), a.Stats.DistancesKm.Median(), a.Stats.DistancesKm.Max()),
		fmt.Sprintf("        KS vs 5 random reassignments %.3f  [paper: min 0.46, max 18,491 km; actual ≈ random]",
			a.MaxKS))
}

// ---------------------------------------------------------------------------
// §7 — case studies

func BenchmarkCaseStudy1_SilentMovers(b *testing.B) {
	w, _ := world(b)
	d := core.FromSimulation(w)
	var audit core.IncentiveAudit
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		audit = d.AuditIncentives(1, 100)
	}
	b.StopTimer()
	worst := 0.0
	if len(audit.SilentMovers) > 0 {
		worst = audit.SilentMovers[0].MedianWitnessKm
	}
	report(b,
		fmt.Sprintf("§7.1: %d silent movers found, worst witnesses %.0f km from asserted location",
			len(audit.SilentMovers), worst),
		"      [paper: 'Joyful Pink Skunk' earning in NY while asserted in PA; 'Striped Yellow Bird' 1,150 km off]")
}

func BenchmarkCaseStudy2_LyingWitnesses(b *testing.B) {
	w, _ := world(b)
	d := core.FromSimulation(w)
	var audit core.IncentiveAudit
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		audit = d.AuditIncentives(1, 100)
	}
	b.StopTimer()
	maxRSSI := 0.0
	if len(audit.LyingWitness) > 0 {
		maxRSSI = audit.LyingWitness[0].MaxRSSI
	}
	report(b,
		fmt.Sprintf("§7.2: %d lying witnesses, max reported RSSI %.0f dBm  [paper: 1,041,313,293 dBm]",
			len(audit.LyingWitness), maxRSSI))
}

// ---------------------------------------------------------------------------
// §8 — Figures 12–15, Tables 2–3

func BenchmarkFigure12_CoverageModels(b *testing.B) {
	w, _ := world(b)
	var cov coverage.Summary
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cov = CoverageStudy(w)
	}
	b.StopTimer()
	report(b,
		fmt.Sprintf("Fig 12 (%% of CONUS, %d hotspots): 300m %.5f%%, hulls %.5f%%, hulls≤25km %.5f%%, radial+RSSI %.5f%%",
			cov.Hotspots, cov.Radius300m.Fraction*100, cov.ConvexHull.Fraction*100,
			cov.Hull25km.Fraction*100, cov.RadialRSSI.Fraction*100),
		"       [paper @20k US hotspots: 0.09295% / — / 0.5723% / 3.3032%; ordering 300m < hulls < radial]")
}

func BenchmarkFigure13_WitnessDistances(b *testing.B) {
	w, _ := world(b)
	var cdf *stats.CDF
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cdf = coverage.WitnessDistanceCDF(coverage.FromChain(w.Chain))
	}
	b.StopTimer()
	report(b,
		fmt.Sprintf("Fig 13: witness distance median %.2f km, p90 %.1f km, max %.0f km  [paper: km-scale median, tail beyond 25 km]",
			cdf.Median(), cdf.Quantile(0.9), cdf.Max()))
}

func BenchmarkFigure14_WitnessRSSI(b *testing.B) {
	w, _ := world(b)
	var cdf *stats.CDF
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cdf = coverage.WitnessRSSICDF(coverage.FromChain(w.Chain))
	}
	b.StopTimer()
	report(b,
		fmt.Sprintf("Fig 14: witness RSSI median %.1f dBm (p10 %.0f, p90 %.0f)  [paper: median −108 dBm]",
			cdf.Median(), cdf.Quantile(0.1), cdf.Quantile(0.9)))
}

func BenchmarkSection81_BasicFunctionality(b *testing.B) {
	var best, res *fieldtest.Result
	var err error
	for i := 0; i < b.N; i++ {
		best, err = fieldtest.Run(fieldtest.BestCase(uint64(2021 + i)))
		if err != nil {
			b.Fatal(err)
		}
		res, err = fieldtest.Run(fieldtest.Residential(uint64(2021 + i)))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	single, atMost2, longest := res.MissRunStats()
	report(b,
		fmt.Sprintf("§8.1 best-case: PRR %.2f%% with outage gaps  [paper: 68.61%%]", best.PRR()*100),
		fmt.Sprintf("§8.1 residential: PRR %.2f%%, single-miss %.1f%%, ≤2 %.1f%%, longest %d  [paper: 73.2%% / 83.5%% / 92.2%% / 34]",
			res.PRR()*100, single*100, atMost2*100, longest))
}

func BenchmarkFigure15_WalkCoverage(b *testing.B) {
	var urban, suburban *fieldtest.Result
	var ucfg, scfg fieldtest.Config
	var err error
	for i := 0; i < b.N; i++ {
		ucfg = fieldtest.UrbanWalk(uint64(2021 + i))
		urban, err = fieldtest.Run(ucfg)
		if err != nil {
			b.Fatal(err)
		}
		scfg = fieldtest.SuburbanWalk(uint64(2021 + i))
		suburban, err = fieldtest.Run(scfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	uw, uo := urban.HIP15Accuracy(ucfg.Hotspots)
	sw, so := suburban.HIP15Accuracy(scfg.Hotspots)
	report(b,
		fmt.Sprintf("Fig 15a urban: PRR %.1f%%, HIP15 within %.1f%% / outside %.1f%%  [paper: 72.9%%, 55.5%% / 79.6%%]",
			urban.PRR()*100, uw*100, uo*100),
		fmt.Sprintf("Fig 15b suburban: PRR %.1f%%, HIP15 within %.1f%% / outside %.1f%%  [paper: 77.6%%]",
			suburban.PRR()*100, sw*100, so*100))
}

func ackTable(r *fieldtest.Result) string {
	total := float64(r.Sent)
	return fmt.Sprintf("sent %d | correct-ACK %.1f%% | correct-NACK %.1f%% | incorrect-ACK %.1f%% | incorrect-NACK %.1f%%",
		r.Sent, float64(r.CorrectAck)/total*100, float64(r.CorrectNack)/total*100,
		float64(r.IncorrectAck)/total*100, float64(r.IncorrectNack)/total*100)
}

func BenchmarkTable2_AckValidityUrban(b *testing.B) {
	var res *fieldtest.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = fieldtest.Run(fieldtest.UrbanWalk(uint64(2021 + i)))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	report(b,
		"Table 2 (urban): "+ackTable(res),
		"        [paper: 2393 | 46.2% | 41.2% | 0% | 12.6%]")
}

func BenchmarkTable3_AckValiditySuburban(b *testing.B) {
	var res *fieldtest.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = fieldtest.Run(fieldtest.SuburbanWalk(uint64(2021 + i)))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	report(b,
		"Table 3 (suburban): "+ackTable(res),
		"        [paper: 1027 | 57.0% | 23.1% | 0% | 20.0%]")
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §4)

func BenchmarkAblation_RelaySelection(b *testing.B) {
	w, _ := world(b)
	rng := stats.NewRNG(5)
	// Rebuild the relay assignment under both policies and compare
	// distance medians and the share of relays beyond a latency-budget
	// distance (≈1,500 km one-way keeps the 1 s ACK round trip
	// plausible over residential paths).
	var entries []p2p.Entry
	var nated []p2p.Entry
	for _, e := range w.Peerbook.Entries() {
		if e.Addr.Relayed() {
			nated = append(nated, e)
		} else {
			entries = append(entries, e)
		}
	}
	build := func(sel p2p.RelaySelector) *stats.CDF {
		cdf := &stats.CDF{}
		for _, e := range nated {
			relay, ok := sel.Select(e.Location, entries, rng)
			if !ok {
				continue
			}
			for _, pub := range entries {
				if pub.Peer == relay {
					cdf.Add(geo.HaversineKm(e.Location, pub.Location))
					break
				}
			}
		}
		return cdf
	}
	var random, nearest *stats.CDF
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		random = build(p2p.RandomRelay{})
		nearest = build(p2p.NearestRelay{K: 3})
	}
	b.StopTimer()
	budget := 1500.0
	report(b,
		fmt.Sprintf("ablation relay-selection: random median %.0f km (%.0f%% beyond %v km) vs nearest-3 median %.0f km (%.0f%%)",
			random.Median(), (1-random.P(budget))*100, budget, nearest.Median(), (1-nearest.P(budget))*100),
		"        [paper: production uses random selection, wasting the LoRaMAC 1 s latency budget]")
}

func BenchmarkAblation_WitnessValidity(b *testing.B) {
	// How many cheat witnesses slip through with the RSSI heuristics
	// on, off, and with HIP15 disabled.
	rng := stats.NewRNG(9)
	center := geo.Point{Lat: 33.4, Lon: -112.0}
	var sites []*poc.Site
	for i := 0; i < 60; i++ {
		p := geo.Destination(center, rng.Float64()*360, rng.Float64()*10)
		s := &poc.Site{Address: fmt.Sprintf("hs-%d", i), Asserted: p, Actual: p,
			Online: true, Env: 2, GainDBi: 3}
		if i%10 == 0 {
			s.Cheat.ForgeRSSI = true
		}
		if i%15 == 0 {
			s.Cheat.Clique = 1
		}
		sites = append(sites, s)
	}
	fleet := poc.NewFleet(sites)
	run := func(e *poc.Engine) (valid, cheatValid int) {
		for i := 0; i < 200; i++ {
			challenger := sites[rng.Intn(len(sites))]
			challengee := sites[rng.Intn(len(sites))]
			if challenger == challengee {
				continue
			}
			rcpt := e.RunChallenge(fleet, challenger, challengee, rng)
			for k, w := range rcpt.Witnesses {
				if !w.Valid {
					continue
				}
				valid++
				_ = k
				for _, s := range sites {
					if s.Address == w.Witness && (s.Cheat.ForgeRSSI || s.Cheat.Clique != 0) {
						cheatValid++
					}
				}
			}
		}
		return
	}
	var vOn, cOn, vOff, cOff int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		on := poc.NewEngine()
		vOn, cOn = run(on)
		off := poc.NewEngine()
		off.DisableValidity = true
		vOff, cOff = run(off)
	}
	b.StopTimer()
	report(b,
		fmt.Sprintf("ablation witness-validity: heuristics ON %d valid (%d from cheats) vs OFF %d valid (%d from cheats)",
			vOn, cOn, vOff, cOff),
		"        [§7.2: heuristics trim cheats but cannot eliminate them]")
}

func BenchmarkAblation_HIP10(b *testing.B) {
	// Arbitrage traffic with and without the HIP10 cap: regenerate two
	// short worlds around the Aug 2020 window.
	mk := func(mult float64) int64 {
		cfg := simnet.TestConfig(4)
		cfg.Days = 450 // through Sep 2020
		cfg.ArbitrageMultiplier = mult
		res, err := simnet.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		d := core.FromSimulation(res)
		t := d.AnalyzeTraffic()
		return int64(t.SpikePeak)
	}
	var with, without int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		with = mk(30)
		without = mk(1)
	}
	b.StopTimer()
	report(b,
		fmt.Sprintf("ablation HIP10: spam-era spike peak %d pkts/close with arbitrage vs %d without (%.0f×)",
			with, without, float64(with)/maxf(float64(without), 1)),
		"        [§5.3.2: uncapped data rewards made self-traffic profitable until HIP10]")
}

func BenchmarkAblation_HIP15(b *testing.B) {
	// Witness-validity share with and without the 300 m floor over a
	// clustered deployment.
	rng := stats.NewRNG(13)
	center := geo.Point{Lat: 39.74, Lon: -104.99}
	var sites []*poc.Site
	for i := 0; i < 40; i++ {
		p := geo.Destination(center, rng.Float64()*360, rng.Float64()*0.25) // tight cluster
		sites = append(sites, &poc.Site{Address: fmt.Sprintf("c-%d", i), Asserted: p, Actual: p,
			Online: true, Env: 2, GainDBi: 3})
	}
	fleet := poc.NewFleet(sites)
	count := func(e *poc.Engine) (valid int) {
		for i := 0; i < 100; i++ {
			a, c := sites[rng.Intn(len(sites))], sites[rng.Intn(len(sites))]
			if a == c {
				continue
			}
			for _, wr := range e.RunChallenge(fleet, a, c, rng).Witnesses {
				if wr.Valid {
					valid++
				}
			}
		}
		return
	}
	var withFloor, withoutFloor int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		on := poc.NewEngine()
		withFloor = count(on)
		off := poc.NewEngine()
		off.DisableHIP15 = true
		withoutFloor = count(off)
	}
	b.StopTimer()
	report(b,
		fmt.Sprintf("ablation HIP15: clustered deployment earns %d valid witnesses with the 300 m floor vs %d without",
			withFloor, withoutFloor),
		"        [HIP15's point: clustering should not pay]")
}

func BenchmarkAblation_RasterResolution(b *testing.B) {
	w, _ := world(b)
	var hotspots []geo.Point
	for _, h := range w.World.Hotspots {
		if h.Online && !h.Asserted.IsZero() && geo.InConus(h.Asserted) {
			hotspots = append(hotspots, h.Asserted)
		}
	}
	var at10, at20, at40 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cell := range []float64{10, 20, 40} {
			est := coverage.NewConusEstimator()
			est.CellKm = cell
			f := est.Radius300m(hotspots).Fraction
			switch cell {
			case 10:
				at10 = f
			case 20:
				at20 = f
			case 40:
				at40 = f
			}
		}
	}
	b.StopTimer()
	report(b,
		fmt.Sprintf("ablation raster: 300m model fraction %.6f%% @10 km, %.6f%% @20 km, %.6f%% @40 km grid (sub-cell accounting keeps it stable)",
			at10*100, at20*100, at40*100))
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// ---------------------------------------------------------------------------
// Live materialized analytics (EXPERIMENTS.md "Streaming Study")

// BenchmarkMeasure is the batch baseline: the cost of refreshing a
// dashboard by re-running the full measurement suite — ETL re-index
// included — as `peoplesnet.Measure` does. Compare its ns/op against
// BenchmarkLiveStudy_PerBlock's ns/block: that ratio is how many
// times cheaper staying current is than recomputing.
func BenchmarkMeasure(b *testing.B) {
	w, _ := world(b)
	var s *Study
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s = Measure(w)
	}
	b.StopTimer()
	report(b, fmt.Sprintf("batch refresh: %d txns (notional) measured from scratch", s.Summary.TotalTxns))
}

// BenchmarkLiveStudy_PerBlock folds the whole cached world chain into
// a live Study and reports the per-block update cost — the price the
// incremental path pays per new block, O(txns in the block) instead
// of O(chain). The ns/block and allocs/block metrics are gated by
// `make bench-trend` like any size metric.
func BenchmarkLiveStudy_PerBlock(b *testing.B) {
	w, _ := world(b)
	md := core.FromSimulation(w)
	blocks := w.Chain.Blocks()
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := live.New(live.Options{Meta: md.Meta, PoCWeight: md.PoCWeight})
		for _, blk := range blocks {
			st.ApplyBlock(blk)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	perBlock := float64(b.Elapsed().Nanoseconds()) / float64(b.N*len(blocks))
	b.ReportMetric(perBlock, "ns/block")
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(b.N*len(blocks)), "allocs/block")
	report(b, fmt.Sprintf("live fold: %d blocks at %.0f ns each", len(blocks), perBlock))
}

// BenchmarkLiveStudy_Snapshot materializes a consistent snapshot from
// a fully-folded study: the cost a dashboard pays per render. No block
// arrives between iterations, so it times the answer alone (bulk
// owners, the per-close series, the move CDFs), independent of chain
// length and of the fleet; what a snapshot pays for the blocks folded
// since the previous one shows in perfbench's follow workload.
func BenchmarkLiveStudy_Snapshot(b *testing.B) {
	w, _ := world(b)
	md := core.FromSimulation(w)
	st := live.New(live.Options{Meta: md.Meta, PoCWeight: md.PoCWeight})
	for _, blk := range w.Chain.Blocks() {
		st.ApplyBlock(blk)
	}
	var sn live.Snapshot
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sn = st.Snapshot()
	}
	b.StopTimer()
	report(b, fmt.Sprintf("snapshot at height %d: %d owners, %d txns (notional)",
		sn.Height, sn.Ownership.Owners, sn.Summary.TotalTxns))
}

// ---------------------------------------------------------------------------
// World generation (sharded vs sequential)

// benchGenerate measures simnet.Generate at the bench scale with a
// fixed worker count. The chain is bit-identical across shard counts
// (pinned by internal/simnet's golden tests), so these differ only in
// wall clock.
func benchGenerate(b *testing.B, shards int) {
	cfg := benchConfig()
	cfg.Shards = shards
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := simnet.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Chain.TxnCount() == 0 {
			b.Fatal("empty chain")
		}
	}
}

func BenchmarkGenerate_Sequential(b *testing.B) { benchGenerate(b, 1) }
func BenchmarkGenerate_Shards2(b *testing.B)    { benchGenerate(b, 2) }
func BenchmarkGenerate_Shards4(b *testing.B)    { benchGenerate(b, 4) }
func BenchmarkGenerate_AutoShards(b *testing.B) { benchGenerate(b, 0) }
