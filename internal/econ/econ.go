// Package econ implements Helium's crypto-economic machinery to the
// depth the paper's analyses need (§2.4, §5.3.2): the epoch mint
// schedule, the reward split across PoC roles and data transfer, the
// HIP10 cap that ended the August 2020 data-spam arbitrage, the
// burn-and-mint DC peg, and a deterministic HNT price series.
package econ

import (
	"math"
	"sort"
	"time"

	"peoplesnet/internal/chain"
	"peoplesnet/internal/stats"
)

// EpochBlocks is the reward epoch length in blocks (~30 min).
const EpochBlocks = 30

// MonthlyMintHNT is the pre-halving net emission rate: five million
// HNT per month.
const MonthlyMintHNT = 5_000_000

// EpochMintBones returns the HNT (in bones) minted per epoch.
func EpochMintBones() int64 {
	epochsPerMonth := 30 * 24 * 60 / EpochBlocks // minutes per month / epoch minutes
	return int64(float64(MonthlyMintHNT) / float64(epochsPerMonth) * chain.BonesPerHNT)
}

// RewardSplit is the fraction of each epoch's mint allocated to each
// role. Fractions sum to 1.
type RewardSplit struct {
	Challenger float64
	Challengee float64
	Witness    float64
	Data       float64
	Consensus  float64
	Securities float64
}

// DefaultSplit follows the 2020–21 era allocation the paper describes:
// data transfer 32.5% (§5.3.2), the rest split across PoC roles,
// consensus, and security holders.
func DefaultSplit() RewardSplit {
	return RewardSplit{
		Challenger: 0.0095,
		Challengee: 0.052,
		Witness:    0.2124,
		Data:       0.325,
		Consensus:  0.06,
		Securities: 0.3411,
	}
}

// Sum returns the total of all fractions (≈1).
func (s RewardSplit) Sum() float64 {
	return s.Challenger + s.Challengee + s.Witness + s.Data + s.Consensus + s.Securities
}

// HIP10Date is when usage-based data-transfer rewards (the cap on the
// arbitrage) activated: August 24, 2020 (§5.3.2).
var HIP10Date = time.Date(2020, 8, 24, 0, 0, 0, 0, time.UTC)

// DCPaymentsLiveDate is when DC payments first went live — the start
// of the arbitrage window (§5.3.2).
var DCPaymentsLiveDate = time.Date(2020, 8, 12, 0, 0, 0, 0, time.UTC)

// EpochActivity summarizes what happened during one epoch, the input
// to reward computation.
type EpochActivity struct {
	// ChallengesByChallenger counts challenges each hotspot issued.
	ChallengesByChallenger map[string]int
	// ChallengeesBeaconed counts times each hotspot transmitted a
	// challenge beacon.
	ChallengeesBeaconed map[string]int
	// WitnessQuality accumulates per-hotspot witness credit (valid
	// witnesses, weighted by per-receipt witness count upstream).
	WitnessQuality map[string]float64
	// DataDC is the DC each hotspot earned ferrying packets.
	DataDC map[string]int64
	// ConsensusMembers took part in block production.
	ConsensusMembers []string
}

// RewardPolicy computes epoch rewards.
type RewardPolicy struct {
	Split RewardSplit
	// HIP10 toggles the usage-based data reward cap. When false
	// (pre-Aug 24 2020), the full data pool is shared proportionally
	// regardless of DC value — the arbitrage the paper documents.
	HIP10 bool
	// USDPerHNT is the oracle price used by the HIP10 cap.
	USDPerHNT float64
	// SecuritiesAccount receives the securities tranche.
	SecuritiesAccount string
}

// ownerOf resolves a hotspot address to its reward account; the
// simulator passes a closure over ledger state.
type OwnerResolver func(hotspot string) (owner string, ok bool)

// sortedKeys returns a map's keys in sorted order. Reward entries land
// on the chain, so both the emission order and every floating-point
// accumulation over these maps must be independent of Go's randomized
// map iteration for a generated chain to be bit-reproducible.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ComputeRewards produces the rewards transaction entries for one
// epoch. HIP10 behaviour (§5.3.2):
//
//   - off: the whole Data tranche is divided among hotspots in
//     proportion to DC carried. Spam inflates your share — arbitrage.
//   - on: each hotspot's data reward is capped at the HNT equivalent
//     of the DC it actually burned; surplus flows back to the PoC
//     tranches (challengee + witness, pro rata).
func (p RewardPolicy) ComputeRewards(epoch int64, act EpochActivity, owner OwnerResolver) []chain.RewardEntry {
	mint := float64(EpochMintBones())
	var entries []chain.RewardEntry
	add := func(hotspot string, bones float64, kind chain.RewardKind) {
		if bones < 1 {
			return
		}
		acct, ok := owner(hotspot)
		if !ok {
			return
		}
		entries = append(entries, chain.RewardEntry{
			Account:     acct,
			Gateway:     hotspot,
			AmountBones: int64(bones),
			Kind:        kind,
		})
	}

	// Challenger tranche: flat per challenge (§2.3: "Challenger
	// rewards are fixed").
	challengerPool := mint * p.Split.Challenger
	challengerKeys := sortedKeys(act.ChallengesByChallenger)
	totalChallenges := 0
	for _, hs := range challengerKeys {
		totalChallenges += act.ChallengesByChallenger[hs]
	}
	if totalChallenges > 0 {
		per := challengerPool / float64(totalChallenges)
		for _, hs := range challengerKeys {
			add(hs, per*float64(act.ChallengesByChallenger[hs]), chain.RewardChallenger)
		}
	}

	// Data tranche.
	dataPool := mint * p.Split.Data
	dataKeys := sortedKeys(act.DataDC)
	var totalDC int64
	for _, hs := range dataKeys {
		totalDC += act.DataDC[hs]
	}
	surplus := 0.0
	if totalDC > 0 {
		if !p.HIP10 {
			for _, hs := range dataKeys {
				add(hs, dataPool*float64(act.DataDC[hs])/float64(totalDC), chain.RewardData)
			}
		} else {
			// Cap at DC value in HNT.
			bonesPerDC := chain.USDPerDC / p.USDPerHNT * chain.BonesPerHNT
			spent := 0.0
			for _, hs := range dataKeys {
				dc := act.DataDC[hs]
				share := dataPool * float64(dc) / float64(totalDC)
				cap := float64(dc) * bonesPerDC
				if share > cap {
					share = cap
				}
				spent += share
				add(hs, share, chain.RewardData)
			}
			surplus = dataPool - spent
		}
	} else {
		surplus = dataPool
	}

	// Challengee and witness tranches share any HIP10 surplus pro
	// rata.
	beaconPool := mint * p.Split.Challengee
	witnessPool := mint * p.Split.Witness
	if surplus > 0 {
		total := p.Split.Challengee + p.Split.Witness
		if total > 0 {
			beaconPool += surplus * p.Split.Challengee / total
			witnessPool += surplus * p.Split.Witness / total
		}
	}
	beaconKeys := sortedKeys(act.ChallengeesBeaconed)
	totalBeacons := 0
	for _, hs := range beaconKeys {
		totalBeacons += act.ChallengeesBeaconed[hs]
	}
	if totalBeacons > 0 {
		per := beaconPool / float64(totalBeacons)
		for _, hs := range beaconKeys {
			add(hs, per*float64(act.ChallengeesBeaconed[hs]), chain.RewardChallengee)
		}
	}
	witnessKeys := sortedKeys(act.WitnessQuality)
	totalQuality := 0.0
	for _, hs := range witnessKeys {
		totalQuality += act.WitnessQuality[hs]
	}
	if totalQuality > 0 {
		for _, hs := range witnessKeys {
			add(hs, witnessPool*act.WitnessQuality[hs]/totalQuality, chain.RewardWitness)
		}
	}

	// Consensus tranche.
	if n := len(act.ConsensusMembers); n > 0 {
		per := mint * p.Split.Consensus / float64(n)
		for _, hs := range act.ConsensusMembers {
			add(hs, per, chain.RewardConsensus)
		}
	}

	// Securities tranche goes to the configured account directly.
	if p.SecuritiesAccount != "" {
		entries = append(entries, chain.RewardEntry{
			Account:     p.SecuritiesAccount,
			AmountBones: int64(mint * p.Split.Securities),
			Kind:        chain.RewardConsensus,
		})
	}
	return entries
}

// PriceSeries is a deterministic daily HNT/USD price path.
type PriceSeries struct {
	Start  time.Time
	Prices []float64 // one per day
}

// GeneratePrices builds a geometric-random-walk price path from
// launch: starting around $0.30 in mid-2019, drifting upward through
// the 2021 speculation run, with daily volatility. The May 2021 window
// is rescaled into the paper's observed $8.32–19.70 band.
func GeneratePrices(start time.Time, days int, rng *stats.RNG) PriceSeries {
	prices := make([]float64, days)
	p := 0.30
	for i := 0; i < days; i++ {
		t := float64(i) / float64(days)
		drift := 0.004 + 0.012*t // accelerating speculative drift
		p *= math.Exp(rng.Normal(drift, 0.06))
		if p < 0.05 {
			p = 0.05
		}
		prices[i] = p
	}
	// Rescale so the final month sits in the paper's observed band.
	if days > 30 {
		maxLast := 0.0
		for _, v := range prices[days-30:] {
			if v > maxLast {
				maxLast = v
			}
		}
		if maxLast > 0 {
			scale := 17.0 / maxLast
			for i := range prices {
				prices[i] *= scale
			}
		}
	}
	return PriceSeries{Start: start, Prices: prices}
}

// At returns the price on the given date, clamping outside the range.
func (s PriceSeries) At(t time.Time) float64 {
	if len(s.Prices) == 0 {
		return 1
	}
	d := int(t.Sub(s.Start).Hours() / 24)
	if d < 0 {
		d = 0
	}
	if d >= len(s.Prices) {
		d = len(s.Prices) - 1
	}
	return s.Prices[d]
}
