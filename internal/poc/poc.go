// Package poc implements Helium's Proof-of-Coverage protocol (§2.3):
// beacon transmission over the radio model, witness collection, and
// the on-chain witness validity rules (§8.2.1)
// — plus the cheating behaviours the paper's §7 case studies uncover
// (silent movers, RSSI forgers, gossip cliques), so that the incentive
// audit has something real to find.
package poc

import (
	"peoplesnet/internal/chain"
	"peoplesnet/internal/geo"
	"peoplesnet/internal/h3lite"
	"peoplesnet/internal/radio"
	"peoplesnet/internal/stats"
)

// CheatProfile configures a hotspot's dishonest behaviours.
type CheatProfile struct {
	// ForgeRSSI inflates reported RSSI by 10–30 dB to look like a
	// "better" witness.
	ForgeRSSI bool
	// AbsurdRSSI occasionally reports a garbage value like the paper's
	// 1,041,313,293 dBm (§7.2) — a buggy driver or naive cheat.
	AbsurdRSSI bool
	// Clique joins a gossip ring: members share challenge secrets out
	// of band and "witness" each other's beacons regardless of radio
	// reception (§7.2). Zero means no clique.
	Clique int
}

// AbsurdRSSIValue is the literal broken witness report from §7.2.
const AbsurdRSSIValue = 1_041_313_293

// Site is one hotspot as the PoC engine sees it. Asserted is the
// on-chain location; Actual is physical truth. They differ for silent
// movers (§7.1).
type Site struct {
	Address  string
	Asserted geo.Point
	Actual   geo.Point
	Cell     h3lite.Cell // asserted res-12 cell
	Online   bool
	Env      radio.Environment
	GainDBi  float64
	Cheat    CheatProfile
}

// Engine runs challenges over a fleet of sites.
type Engine struct {
	// Validity knobs, defaulting to the paper's rules.
	MinWitnessDistM  float64 // HIP15 floor (300 m)
	MaxPlausibleRSSI float64 // hard ceiling before "too high"
	MinPlausibleRSSI float64 // floor before "too low"
	// FreeSpaceMarginDB: a witness whose RSSI beats free-space loss at
	// the asserted distance by more than this margin is implausibly
	// strong ("several heuristics", §8.2.1).
	FreeSpaceMarginDB float64
	// ConsiderRadiusKm bounds the candidate witness search.
	ConsiderRadiusKm float64
	// MaxCandidates, when positive, subsamples the candidate witness
	// set — a performance valve for dense metros in whole-world
	// simulations (reception odds per candidate are unchanged).
	MaxCandidates int
	// TxPowerDBm is the beacon transmit power.
	TxPowerDBm float64
	// FreqMHz for path loss.
	FreqMHz float64
	// Channels in the regional plan (witnesses claiming other channels
	// are invalid).
	Channels int
	// DisableValidity turns all witness filtering off (ablation).
	DisableValidity bool
	// DisableHIP15 turns only the 300 m rule off (ablation).
	DisableHIP15 bool
}

// NewEngine returns an engine with the paper's parameters.
func NewEngine() *Engine {
	return &Engine{
		MinWitnessDistM:   chain.WitnessMinDistanceM,
		MaxPlausibleRSSI:  -40,
		MinPlausibleRSSI:  -139,
		FreeSpaceMarginDB: 10,
		ConsiderRadiusKm:  120, // beyond the paper's 60–110 km Lake Michigan outliers
		TxPowerDBm:        27,
		FreqMHz:           915,
		Channels:          8,
	}
}

// Fleet is an indexed set of sites.
type Fleet struct {
	Sites []*Site
	index *geo.SpatialIndex
}

// NewFleet indexes the sites by their actual (physical) locations,
// because radio reception happens where the hardware really is.
func NewFleet(sites []*Site) *Fleet {
	f := &Fleet{Sites: sites, index: geo.NewSpatialIndex(30)}
	for i, s := range sites {
		f.index.Add(i, s.Actual)
	}
	return f
}

// Near returns sites physically within radiusKm of p.
func (f *Fleet) Near(p geo.Point, radiusKm float64) []*Site {
	ids := f.index.Near(p, radiusKm)
	out := make([]*Site, 0, len(ids))
	for _, id := range ids {
		out = append(out, f.Sites[id])
	}
	return out
}

// Receipt is the engine's output for one challenge, mirroring the
// on-chain poc_receipt.
type Receipt struct {
	Challenger string
	Challengee string
	// ChallengeeAsserted / Actual expose both locations for audits.
	ChallengeeAsserted geo.Point
	ChallengeeActual   geo.Point
	ChallengeeCell     h3lite.Cell
	Witnesses          []chain.WitnessReport
	// WitnessAsserted records each witness's asserted location in
	// order, for geometry-based audits.
	WitnessAsserted []geo.Point
}

// ToTxn converts the receipt to its chain transaction.
func (r *Receipt) ToTxn() *chain.PoCReceipt {
	return &chain.PoCReceipt{
		Challenger:         r.Challenger,
		Challengee:         r.Challengee,
		ChallengeeLocation: r.ChallengeeCell,
		Witnesses:          r.Witnesses,
	}
}

// RunChallenge executes one challenge: challengee beacons from its
// actual location; physically nearby online sites roll reception
// through the radio model; clique members inject fake witnesses; every
// report is then passed through the validity rules against asserted
// locations — exactly the information asymmetry the paper exploits.
func (e *Engine) RunChallenge(f *Fleet, challenger, challengee *Site, rng *stats.RNG) Receipt {
	rcpt := Receipt{
		Challenger:         challenger.Address,
		Challengee:         challengee.Address,
		ChallengeeAsserted: challengee.Asserted,
		ChallengeeActual:   challengee.Actual,
		ChallengeeCell:     challengee.Cell,
	}
	channel := rng.Intn(e.Channels)
	candidates := f.Near(challengee.Actual, e.ConsiderRadiusKm)
	if e.MaxCandidates > 0 && len(candidates) > e.MaxCandidates {
		rng.Shuffle(len(candidates), func(i, j int) {
			candidates[i], candidates[j] = candidates[j], candidates[i]
		})
		candidates = candidates[:e.MaxCandidates]
	}
	for _, w := range candidates {
		if w == challengee || !w.Online {
			continue
		}
		distKm := geo.HaversineKm(challengee.Actual, w.Actual)
		env := worseEnv(challengee.Env, w.Env)
		link := radio.Link{
			TxPowerDBm: e.TxPowerDBm,
			TxGainDBi:  challengee.GainDBi,
			RxGainDBi:  w.GainDBi,
			Model:      radio.NewPathLoss(env, e.FreqMHz),
		}
		rssi := link.RSSI(distKm, rng)
		received := radio.Delivered(rssi, radio.SF9, radio.BW125, rng)
		inClique := challengee.Cheat.Clique != 0 && challengee.Cheat.Clique == w.Cheat.Clique
		if !received && !inClique {
			continue
		}
		report := chain.WitnessReport{
			Witness:  w.Address,
			RSSIdBm:  rssi,
			SNRdB:    rng.Normal(5, 4),
			Channel:  channel,
			Location: h3lite.FromLatLon(w.Asserted, 12),
		}
		if !received && inClique {
			// Gossiped secret: fabricate a plausible reception.
			report.RSSIdBm = rng.Normal(-105, 8)
		}
		if w.Cheat.ForgeRSSI {
			report.RSSIdBm += 10 + rng.Float64()*20
		}
		if w.Cheat.AbsurdRSSI && rng.Bool(0.08) {
			report.RSSIdBm = AbsurdRSSIValue
		}
		report.Valid, report.Reason = e.JudgeWitness(challengee, w.Asserted, report)
		rcpt.Witnesses = append(rcpt.Witnesses, report)
		rcpt.WitnessAsserted = append(rcpt.WitnessAsserted, w.Asserted)
	}
	return rcpt
}

// worseEnv picks the harsher of two local environments for a link.
func worseEnv(a, b radio.Environment) radio.Environment {
	if a > b {
		return a
	}
	return b
}

// JudgeWitness applies the §8.2.1 validity list to one report, using
// only on-chain knowledge: the challengee's and witness's *asserted*
// locations. Returns (valid, reason) where reason names the first
// failed rule.
func (e *Engine) JudgeWitness(challengee *Site, witnessAsserted geo.Point, rep chain.WitnessReport) (bool, string) {
	if e.DisableValidity {
		return true, ""
	}
	assertedKm := geo.HaversineKm(challengee.Asserted, witnessAsserted)
	if !e.DisableHIP15 && assertedKm*1000 < e.MinWitnessDistM {
		return false, "too_close"
	}
	if rep.Channel < 0 || rep.Channel >= e.Channels {
		return false, "wrong_channel"
	}
	if rep.RSSIdBm > e.MaxPlausibleRSSI {
		return false, "rssi_too_high"
	}
	// Free-space plausibility: nothing can arrive stronger than
	// free-space loss at the asserted distance allows (plus margin).
	if assertedKm > 0 {
		best := e.TxPowerDBm + 12 /* generous combined gain */ - radio.FSPLdB(assertedKm, e.FreqMHz)
		if rep.RSSIdBm > best+e.FreeSpaceMarginDB {
			return false, "rssi_too_high"
		}
	}
	if rep.RSSIdBm < e.MinPlausibleRSSI {
		return false, "rssi_too_low"
	}
	if rep.Location.Valid() && rep.Location.PentagonDistorted() {
		return false, "pentagonal_distortion"
	}
	return true, ""
}
