package econ

import (
	"math"
	"testing"
	"time"

	"peoplesnet/internal/chain"
	"peoplesnet/internal/stats"
)

func ownerAll(hs string) (string, bool) { return "owner-" + hs, true }

func TestEpochMint(t *testing.T) {
	bones := EpochMintBones()
	// 5M HNT / month over 1440 epochs/month ≈ 3472 HNT/epoch.
	hnt := float64(bones) / chain.BonesPerHNT
	if math.Abs(hnt-3472.2) > 1 {
		t.Fatalf("epoch mint = %v HNT", hnt)
	}
}

func TestDefaultSplitSums(t *testing.T) {
	if s := DefaultSplit().Sum(); math.Abs(s-1) > 0.001 {
		t.Fatalf("split sums to %v", s)
	}
}

func TestChallengerRewardsFlat(t *testing.T) {
	p := RewardPolicy{Split: DefaultSplit(), HIP10: true, USDPerHNT: 15}
	act := EpochActivity{
		ChallengesByChallenger: map[string]int{"a": 2, "b": 1},
	}
	entries := p.ComputeRewards(1, act, ownerAll)
	var ra, rb int64
	for _, e := range entries {
		if e.Kind == chain.RewardChallenger {
			switch e.Gateway {
			case "a":
				ra = e.AmountBones
			case "b":
				rb = e.AmountBones
			}
		}
	}
	if ra == 0 || rb == 0 {
		t.Fatal("challenger rewards missing")
	}
	if math.Abs(float64(ra)/float64(rb)-2) > 0.01 {
		t.Fatalf("per-challenge reward not flat: %d vs %d", ra, rb)
	}
}

func TestPreHIP10ArbitrageDynamics(t *testing.T) {
	// Pre-HIP10, a spammer with most of the traffic captures most of
	// the (huge) data pool.
	p := RewardPolicy{Split: DefaultSplit(), HIP10: false, USDPerHNT: 0.5}
	act := EpochActivity{
		DataDC: map[string]int64{"spammer": 9000, "honest": 1000},
	}
	entries := p.ComputeRewards(1, act, ownerAll)
	rewards := map[string]int64{}
	for _, e := range entries {
		if e.Kind == chain.RewardData {
			rewards[e.Gateway] = e.AmountBones
		}
	}
	pool := float64(EpochMintBones()) * DefaultSplit().Data
	if got := float64(rewards["spammer"]); math.Abs(got-pool*0.9)/pool > 0.01 {
		t.Fatalf("spammer reward = %v, want 90%% of pool %v", got, pool)
	}
	// The spammer's HNT haul massively exceeds what the DC cost.
	bonesPerDC := chain.USDPerDC / 0.5 * chain.BonesPerHNT
	costBones := 9000 * bonesPerDC
	if float64(rewards["spammer"]) < costBones*10 {
		t.Fatalf("arbitrage not profitable: reward %d vs cost %v", rewards["spammer"], costBones)
	}
}

func TestHIP10CapsDataRewards(t *testing.T) {
	p := RewardPolicy{Split: DefaultSplit(), HIP10: true, USDPerHNT: 0.5}
	act := EpochActivity{
		DataDC:              map[string]int64{"spammer": 9000, "honest": 1000},
		ChallengeesBeaconed: map[string]int{"poc-hs": 1},
		WitnessQuality:      map[string]float64{"w1": 1},
	}
	entries := p.ComputeRewards(1, act, ownerAll)
	bonesPerDC := chain.USDPerDC / 0.5 * chain.BonesPerHNT
	var dataTotal, beacon, witness float64
	for _, e := range entries {
		switch e.Kind {
		case chain.RewardData:
			dataTotal += float64(e.AmountBones)
			cap := float64(9000) * bonesPerDC
			if e.Gateway == "spammer" && float64(e.AmountBones) > cap*1.01 {
				t.Fatalf("spammer reward %d exceeds HIP10 cap %v", e.AmountBones, cap)
			}
		case chain.RewardChallengee:
			beacon += float64(e.AmountBones)
		case chain.RewardWitness:
			witness += float64(e.AmountBones)
		}
	}
	// Surplus flowed to PoC: beacon pool exceeds its base tranche.
	basePool := float64(EpochMintBones()) * DefaultSplit().Challengee
	if beacon <= basePool {
		t.Fatalf("beacon pool %v did not receive surplus (base %v)", beacon, basePool)
	}
	if witness <= float64(EpochMintBones())*DefaultSplit().Witness {
		t.Fatal("witness pool did not receive surplus")
	}
}

func TestNoDataEpochShiftsPoolToPoC(t *testing.T) {
	p := RewardPolicy{Split: DefaultSplit(), HIP10: true, USDPerHNT: 15}
	act := EpochActivity{
		ChallengeesBeaconed: map[string]int{"hs": 1},
		WitnessQuality:      map[string]float64{"w": 1},
	}
	entries := p.ComputeRewards(1, act, ownerAll)
	var beacon float64
	for _, e := range entries {
		if e.Kind == chain.RewardChallengee {
			beacon += float64(e.AmountBones)
		}
	}
	base := float64(EpochMintBones()) * DefaultSplit().Challengee
	if beacon <= base*1.5 {
		t.Fatalf("empty-data epoch beacon pool = %v, want well above base %v", beacon, base)
	}
}

func TestConsensusAndSecurities(t *testing.T) {
	p := RewardPolicy{Split: DefaultSplit(), HIP10: true, USDPerHNT: 15, SecuritiesAccount: "helium-inc"}
	act := EpochActivity{ConsensusMembers: []string{"c1", "c2"}}
	entries := p.ComputeRewards(1, act, ownerAll)
	var consensus int
	var securities int64
	for _, e := range entries {
		if e.Kind == chain.RewardConsensus {
			if e.Account == "helium-inc" {
				securities = e.AmountBones
			} else {
				consensus++
			}
		}
	}
	if consensus != 2 {
		t.Fatalf("consensus entries = %d", consensus)
	}
	want := int64(float64(EpochMintBones()) * DefaultSplit().Securities)
	if securities < want-1 || securities > want+1 {
		t.Fatalf("securities = %d, want ~%d", securities, want)
	}
}

func TestUnresolvableOwnerSkipped(t *testing.T) {
	p := RewardPolicy{Split: DefaultSplit(), HIP10: true, USDPerHNT: 15}
	act := EpochActivity{ChallengesByChallenger: map[string]int{"ghost": 1}}
	entries := p.ComputeRewards(1, act, func(string) (string, bool) { return "", false })
	if len(entries) != 0 {
		t.Fatalf("entries for unresolvable hotspots: %v", entries)
	}
}

func TestPriceSeries(t *testing.T) {
	start := time.Date(2019, 7, 29, 0, 0, 0, 0, time.UTC)
	s := GeneratePrices(start, 670, stats.NewRNG(7))
	if len(s.Prices) != 670 {
		t.Fatalf("len = %d", len(s.Prices))
	}
	for i, p := range s.Prices {
		if p <= 0 || math.IsNaN(p) {
			t.Fatalf("price[%d] = %v", i, p)
		}
	}
	// Final month must sit within a speculative band near the paper's
	// May 2021 range.
	final := s.Prices[len(s.Prices)-30:]
	maxP := 0.0
	for _, p := range final {
		if p > maxP {
			maxP = p
		}
	}
	if maxP < 10 || maxP > 25 {
		t.Fatalf("final month max = %v, want near the $8–20 band", maxP)
	}
	// Early prices are far lower: the speculation run happened.
	if s.Prices[30] > s.Prices[len(s.Prices)-1] {
		t.Fatal("no upward drift")
	}
	// At() clamps.
	if s.At(start.AddDate(0, 0, -10)) != s.Prices[0] {
		t.Fatal("At before start not clamped")
	}
	if s.At(start.AddDate(5, 0, 0)) != s.Prices[len(s.Prices)-1] {
		t.Fatal("At after end not clamped")
	}
	if (PriceSeries{}).At(start) != 1 {
		t.Fatal("empty series fallback")
	}
}

func TestHIP10Dates(t *testing.T) {
	if !DCPaymentsLiveDate.Before(HIP10Date) {
		t.Fatal("arbitrage window inverted")
	}
	if HIP10Date.Sub(DCPaymentsLiveDate) != 12*24*time.Hour {
		t.Fatalf("window = %v", HIP10Date.Sub(DCPaymentsLiveDate))
	}
}

// Property: total rewards never exceed the epoch mint (minus the
// tranches with no participants), for arbitrary activity.
func TestRewardsBoundedProperty(t *testing.T) {
	rng := stats.NewRNG(77)
	for trial := 0; trial < 200; trial++ {
		act := EpochActivity{
			ChallengesByChallenger: map[string]int{},
			ChallengeesBeaconed:    map[string]int{},
			WitnessQuality:         map[string]float64{},
			DataDC:                 map[string]int64{},
		}
		n := 1 + rng.Intn(20)
		for i := 0; i < n; i++ {
			hs := "hs" + string(rune('a'+i))
			if rng.Bool(0.7) {
				act.ChallengesByChallenger[hs] = 1 + rng.Intn(3)
			}
			if rng.Bool(0.7) {
				act.ChallengeesBeaconed[hs] = 1 + rng.Intn(3)
			}
			if rng.Bool(0.7) {
				act.WitnessQuality[hs] = rng.Float64() * 10
			}
			if rng.Bool(0.5) {
				act.DataDC[hs] = int64(rng.Intn(100000))
			}
		}
		p := RewardPolicy{
			Split:             DefaultSplit(),
			HIP10:             rng.Bool(0.5),
			USDPerHNT:         0.1 + rng.Float64()*20,
			SecuritiesAccount: "sec",
		}
		var total int64
		for _, e := range p.ComputeRewards(int64(trial), act, ownerAll) {
			if e.AmountBones < 0 {
				t.Fatalf("negative reward: %+v", e)
			}
			total += e.AmountBones
		}
		if total > EpochMintBones()+1 {
			t.Fatalf("trial %d: rewards %d exceed mint %d", trial, total, EpochMintBones())
		}
	}
}
