package core

import (
	"testing"

	"peoplesnet/internal/chain"
	"peoplesnet/internal/simnet"
	"peoplesnet/internal/stats"
)

var cachedDataset *Dataset

// testDataset generates (once) a scaled world and adapts it.
func testDataset(t *testing.T) *Dataset {
	t.Helper()
	if cachedDataset == nil {
		res, err := simnet.Generate(simnet.TestConfig(99))
		if err != nil {
			t.Fatal(err)
		}
		cachedDataset = FromSimulation(res)
	}
	return cachedDataset
}

func TestChainSummary(t *testing.T) {
	d := testDataset(t)
	s := d.SummarizeChain()
	if s.TotalTxns == 0 || s.PoCTxns == 0 {
		t.Fatal("empty summary")
	}
	// §3: ~99.2% of transactions are PoC.
	if s.PoCFraction < 0.97 || s.PoCFraction > 0.9999 {
		t.Fatalf("PoC fraction = %v, want ≈0.992", s.PoCFraction)
	}
	if s.ByType[chain.TxnAddGateway] == 0 {
		t.Fatal("no add_gateway in mix")
	}
}

func TestMoveAnalysis(t *testing.T) {
	d := testDataset(t)
	a := d.AnalyzeMoves()
	if a.Hotspots == 0 {
		t.Fatal("no hotspots analyzed")
	}
	// Fig 2 shape: most hotspots never move; few move more than five
	// times.
	if a.NeverMovedFrac < 0.5 || a.NeverMovedFrac > 0.9 {
		t.Fatalf("never-moved = %v, want ≈0.72", a.NeverMovedFrac)
	}
	if a.AtMostTwoFrac < a.NeverMovedFrac {
		t.Fatal("CDF inconsistency")
	}
	if a.MoreThanFive > 0.1 {
		t.Fatalf("more-than-five = %v, want small", a.MoreThanFive)
	}
	// The 20-move outlier exists.
	if a.MaxMoves < 10 {
		t.Fatalf("max moves = %d, want the outlier", a.MaxMoves)
	}
	// Fig 3: both short and long moves appear; long moves include
	// intercontinental exports.
	if a.DistancesKm.N() == 0 {
		t.Fatal("no move distances")
	}
	if len(a.LongMoves) == 0 {
		t.Fatal("no >500 km moves")
	}
	if a.LongMoves[0].DistanceKm < 2000 {
		t.Fatalf("longest move only %v km; exports should cross oceans", a.LongMoves[0].DistanceKm)
	}
	// Fig 4: interval fractions are ordered and nontrivial.
	if !(a.WithinDayFrac <= a.WithinWeekFrac && a.WithinWeekFrac <= a.WithinMoFrac) {
		t.Fatal("interval fractions not monotone")
	}
	if a.WithinDayFrac < 0.05 || a.WithinMoFrac > 0.95 {
		t.Fatalf("interval fractions day=%v month=%v", a.WithinDayFrac, a.WithinMoFrac)
	}
	// (0,0) artifacts: mostly first-time assertions (paper: 89%).
	if a.ZeroAssertions == 0 {
		t.Fatal("no (0,0) assertions")
	}
	if a.ZeroFirstFrac < 0.6 {
		t.Fatalf("zero-first fraction = %v, want ≈0.89", a.ZeroFirstFrac)
	}
	// Nobody stays at (0,0) (paper: no online hotspots remain there
	// aside from unfixed initializations; our sim fixes all).
	if float64(a.StillAtZero) > float64(a.ZeroAssertions)*0.5 {
		t.Fatalf("%d hotspots stuck at (0,0)", a.StillAtZero)
	}
}

func TestGrowthAnalysis(t *testing.T) {
	d := testDataset(t)
	g := d.AnalyzeGrowth()
	if g.Total == 0 || g.Daily.Len() == 0 {
		t.Fatal("no growth data")
	}
	// Cumulative ends at the total.
	if got := g.Cumulative.Ys[g.Cumulative.Len()-1]; int64(got) != g.Total {
		t.Fatalf("cumulative end %v != total %d", got, g.Total)
	}
	// Exponential shape: final rate well above the early rate.
	early := g.Daily.Ys[0]
	if g.FinalRate < early {
		t.Fatalf("no growth acceleration: early %v final %v", early, g.FinalRate)
	}
}

func TestOwnershipAnalysis(t *testing.T) {
	d := testDataset(t)
	o := d.AnalyzeOwnership()
	if o.Owners == 0 {
		t.Fatal("no owners")
	}
	if o.OwnOneFrac < 0.4 {
		t.Fatalf("own-one = %v, want ≈0.62", o.OwnOneFrac)
	}
	if o.AtMostThree < 0.7 {
		t.Fatalf("at-most-three = %v, want ≈0.84", o.AtMostThree)
	}
	if o.MaxOwned < 20 {
		t.Fatalf("max owned = %d", o.MaxOwned)
	}
	if len(o.Bulk) == 0 {
		t.Fatal("no bulk owners")
	}
	// §4.3 classification finds both commercial fleets and pools.
	var commercial, pool int
	for _, b := range o.Bulk {
		switch b.Class {
		case LikelyCommercial:
			commercial++
		case LikelyMiningPool:
			pool++
		}
	}
	if commercial == 0 {
		t.Fatal("no likely-commercial owners found")
	}
	if pool == 0 {
		t.Fatal("no likely-mining-pool owners found")
	}
	if SmallHolder.String() == "" || InferredClass(99).String() != "unknown" {
		t.Fatal("class strings wrong")
	}
}

func TestResaleAnalysis(t *testing.T) {
	d := testDataset(t)
	r := d.AnalyzeResale(200)
	if r.TotalTransfers == 0 {
		t.Fatal("no transfers")
	}
	// Fig 7a: ≥95% of transferred hotspots change hands ≤2 times.
	if r.AtMostTwoFrac < 0.85 {
		t.Fatalf("at-most-two transfers = %v, want ≈0.954", r.AtMostTwoFrac)
	}
	// 95.8% zero-DC.
	if r.ZeroDCFrac < 0.9 {
		t.Fatalf("zero-DC = %v", r.ZeroDCFrac)
	}
	if r.TransferredFrac <= 0 || r.TransferredFrac > 0.2 {
		t.Fatalf("transferred fraction = %v, want ≈0.086", r.TransferredFrac)
	}
	if len(r.TopTraders) == 0 || r.TopTraders[0].Bought+r.TopTraders[0].Sold == 0 {
		t.Fatal("trader ranking empty")
	}
	if r.PerMonth.Len() == 0 {
		t.Fatal("no monthly series")
	}
	// Resale only exists after its introduction (~month 16).
	if r.PerMonth.Xs[0] < 15 {
		t.Fatalf("transfers before the feature existed (month %d)", r.PerMonth.Xs[0])
	}
}

func TestTrafficAnalysis(t *testing.T) {
	d := testDataset(t)
	tr := d.AnalyzeTraffic()
	if tr.TotalPackets == 0 || tr.PerClose.Len() == 0 {
		t.Fatal("no traffic")
	}
	// §5.2: Console dominates state-channel activity (81.18%).
	if tr.ConsoleShare < 0.6 || tr.ConsoleShare > 0.95 {
		t.Fatalf("console share = %v, want ≈0.81", tr.ConsoleShare)
	}
	// The arbitrage spike is detected in the right era (Aug–Sep 2020 ≈
	// blocks 545k–575k at 1440 blocks/day).
	if tr.SpikeStartBlock == 0 {
		t.Fatal("no spike found")
	}
	spikeDay := tr.SpikeStartBlock / chain.BlocksPerDay
	if spikeDay < 360 || spikeDay > 420 {
		t.Fatalf("spike at day %d, want ≈380", spikeDay)
	}
	if tr.FinalPktPerSec <= 0 {
		t.Fatal("no final traffic rate")
	}
}

func TestRouterAnalysis(t *testing.T) {
	d := testDataset(t)
	r := d.AnalyzeRouters()
	// Paper: 10 OUIs, OUI 1 and 2 are Helium's.
	if r.ConsoleOUIs != 2 {
		t.Fatalf("console OUIs = %d", r.ConsoleOUIs)
	}
	if r.OUIs != 2+len(r.ThirdPartyOUI) || r.OUIs < 4 {
		t.Fatalf("OUIs = %d", r.OUIs)
	}
}

func TestISPAnalysis(t *testing.T) {
	d := testDataset(t)
	a := d.AnalyzeISPs(15)
	if len(a.TopISPs) != 15 {
		t.Fatalf("top ISPs = %d rows", len(a.TopISPs))
	}
	// Table 1's head: at test scale the top spot can flip between the
	// big three within sampling noise, but the head must be the big
	// cable/fiber carriers and Spectrum must rank well above the
	// mid-table entrants.
	head := map[string]bool{a.TopISPs[0].ISP: true, a.TopISPs[1].ISP: true, a.TopISPs[2].ISP: true}
	if !head["Spectrum"] {
		t.Fatalf("Spectrum not in top 3: %+v", a.TopISPs[:3])
	}
	for _, big := range []string{"Spectrum", "Comcast", "Verizon"} {
		if !head[big] {
			t.Fatalf("%s not in top 3: %+v", big, a.TopISPs[:3])
		}
	}
	// Fig 9: many ASNs, heavy head.
	if len(a.ASNs) < 20 {
		t.Fatalf("ASNs = %d", len(a.ASNs))
	}
	if a.ASNs[0].Hotspots < a.ASNs[len(a.ASNs)-1].Hotspots {
		t.Fatal("ASN list not descending")
	}
	// §6.1: a large share of cities rely on one ASN.
	if a.Cities == 0 || a.SingleASNCities == 0 {
		t.Fatalf("city stats empty: %+v", a)
	}
	frac := float64(a.SingleASNCities) / float64(a.Cities)
	if frac < 0.2 {
		t.Fatalf("single-ASN city fraction = %v, want ≈0.40", frac)
	}
	if a.SingleASNMulti == 0 || a.SingleASNMulti > a.SingleASNCities {
		t.Fatalf("single-ASN multi = %d of %d", a.SingleASNMulti, a.SingleASNCities)
	}
	if a.CloudHotspots == 0 {
		t.Fatal("no cloud hotspots detected")
	}
}

func TestOutageImpact(t *testing.T) {
	d := testDataset(t)
	// Find any city with Spectrum presence for the LA-style case.
	best := OutageImpact{}
	for _, m := range d.Meta {
		if m.ISP == "Spectrum" && m.City != "" {
			o := d.AssessOutage(m.City, "Spectrum")
			if o.Affected > best.Affected {
				best = o
			}
		}
	}
	if best.Affected == 0 {
		t.Skip("no Spectrum city in this world")
	}
	if best.Fraction <= 0 || best.Fraction > 1 {
		t.Fatalf("impact = %+v", best)
	}
}

func TestRelayAnalysisKS(t *testing.T) {
	d := testDataset(t)
	a := d.AnalyzeRelays(5, stats.NewRNG(3))
	if a.Stats.Total == 0 || a.Stats.Relayed == 0 {
		t.Fatal("no relay data")
	}
	frac := a.Stats.RelayedFraction()
	if frac < 0.4 || frac > 0.7 {
		t.Fatalf("relayed fraction = %v, want ≈0.55", frac)
	}
	// Fig 11's conclusion: actual assignment is statistically
	// indistinguishable from random.
	if len(a.RandomTrials) != 5 {
		t.Fatalf("trials = %d", len(a.RandomTrials))
	}
	if a.MaxKS > 0.12 {
		t.Fatalf("KS vs random = %v; relay selection should look random", a.MaxKS)
	}
}

func TestIncentiveAudit(t *testing.T) {
	d := testDataset(t)
	audit := d.AuditIncentives(1, 100)
	// The sim plants silent movers; the audit must find at least one
	// by pure receipt geometry.
	if len(audit.SilentMovers) == 0 {
		t.Fatal("no silent movers found")
	}
	for _, f := range audit.SilentMovers {
		if f.MedianWitnessKm <= 100 {
			t.Fatalf("flagged mover below threshold: %+v", f)
		}
	}
	// RSSI forgers / absurd reporters exist and are flagged.
	if len(audit.LyingWitness) == 0 {
		t.Fatal("no lying witnesses found")
	}
}

func TestPoCWeightDefault(t *testing.T) {
	d := &Dataset{Chain: chain.NewChain(chain.DefaultGenesis)}
	if d.pocWeight() != 1 {
		t.Fatal("zero weight should default to 1")
	}
	s := d.SummarizeChain()
	if s.TotalTxns != 0 || s.PoCFraction != 0 {
		t.Fatal("empty chain summary wrong")
	}
}

func TestGrowthMakerEras(t *testing.T) {
	d := testDataset(t)
	g := d.AnalyzeGrowth()
	if len(g.ByMaker) < 3 {
		t.Fatalf("makers = %v", g.ByMaker)
	}
	// The original Helium batch precedes every third-party vendor.
	og, ok := g.FirstMakerDay["OG-Helium"]
	if !ok {
		t.Fatal("no original-batch hotspots")
	}
	for maker, first := range g.FirstMakerDay {
		if maker != "OG-Helium" && maker != "validator" && first < og {
			t.Fatalf("%s appeared (day %d) before the original batch (day %d)", maker, first, og)
		}
	}
}

func TestISPBanImpact(t *testing.T) {
	d := testDataset(t)
	ban := d.AssessISPBan("Spectrum", "US")
	if ban.CountryPublic == 0 || ban.VisibleAffected == 0 {
		t.Fatalf("ban impact empty: %+v", ban)
	}
	if ban.Fraction <= 0 || ban.Fraction > 0.7 {
		t.Fatalf("Spectrum impact = %v, want a substantial minority  [paper: ≥17%%]", ban.Fraction)
	}
	// A foreign ISP has no US exposure.
	if got := d.AssessISPBan("Virgin Media", "US"); got.VisibleAffected != 0 {
		t.Fatalf("Virgin Media in the US: %+v", got)
	}
}

func TestBalanceHistoryHeuristic(t *testing.T) {
	d := testDataset(t)
	o := d.AnalyzeOwnership()
	// Find one pool and one commercial owner from the classifier.
	var pool, commercial string
	for _, b := range o.Bulk {
		if pool == "" && b.Class == LikelyMiningPool {
			pool = b.Address
		}
		if commercial == "" && b.Class == LikelyCommercial {
			commercial = b.Address
		}
	}
	if pool == "" || commercial == "" {
		t.Fatal("classifier found no pool/commercial pair")
	}
	poolTS := d.BalanceHistory(pool)
	commTS := d.BalanceHistory(commercial)
	if poolTS.Len() == 0 || commTS.Len() == 0 {
		t.Fatal("empty balance histories")
	}
	// §4.3: pools encash (sawtooth balance); application operators
	// accumulate.
	poolDraws := Encashes(poolTS)
	commDraws := Encashes(commTS)
	if poolDraws < 3 {
		t.Fatalf("pool drawdowns = %d, want a sawtooth", poolDraws)
	}
	if commDraws > poolDraws/2 {
		t.Fatalf("commercial drawdowns %d not clearly below pool's %d", commDraws, poolDraws)
	}
	// Reconstructed final balance matches the ledger.
	commTS.Sort()
	final := commTS.Ys[commTS.Len()-1]
	ledgerBal := float64(d.Chain.(*chain.Chain).Ledger().GetAccount(commercial).HNTBones)
	if final != ledgerBal {
		t.Fatalf("reconstructed balance %v != ledger %v", final, ledgerBal)
	}
}
