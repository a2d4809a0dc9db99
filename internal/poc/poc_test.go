package poc

import (
	"testing"

	"peoplesnet/internal/chain"
	"peoplesnet/internal/geo"
	"peoplesnet/internal/h3lite"
	"peoplesnet/internal/radio"
	"peoplesnet/internal/stats"
)

// site creates an honest online site at (lat, lon).
func site(addr string, lat, lon float64) *Site {
	p := geo.Point{Lat: lat, Lon: lon}
	return &Site{
		Address:  addr,
		Asserted: p,
		Actual:   p,
		Cell:     h3lite.FromLatLon(p, 12),
		Online:   true,
		Env:      radio.Suburban,
		GainDBi:  3,
	}
}

// offset returns a point d km east of (lat, lon).
func offset(lat, lon, dKm float64) geo.Point {
	return geo.Destination(geo.Point{Lat: lat, Lon: lon}, 90, dKm)
}

func TestChallengeProducesWitnesses(t *testing.T) {
	rng := stats.NewRNG(1)
	// A challengee ringed by hotspots 1–3 km away: several should
	// witness at suburban ranges.
	challengee := site("target", 33, -117)
	sites := []*Site{challengee, site("challenger", 33.5, -117)}
	for i := 0; i < 8; i++ {
		p := geo.Destination(geo.Point{Lat: 33, Lon: -117}, float64(i)*45, 1+float64(i)*0.25)
		s := site("w", p.Lat, p.Lon)
		s.Address = s.Address + string(rune('0'+i))
		s.Asserted, s.Actual = p, p
		sites = append(sites, s)
	}
	f := NewFleet(sites)
	e := NewEngine()
	rcpt := e.RunChallenge(f, sites[1], challengee, rng)
	if rcpt.Challenger != "challenger" || rcpt.Challengee != "target" {
		t.Fatalf("receipt = %+v", rcpt)
	}
	if len(rcpt.Witnesses) == 0 {
		t.Fatal("no witnesses at 1-3 km suburban range")
	}
	valid := 0
	for _, w := range rcpt.Witnesses {
		if w.Valid {
			valid++
		}
	}
	if valid == 0 {
		t.Fatal("no valid witnesses")
	}
	// Conversion to chain txn.
	txn := rcpt.ToTxn()
	if txn.Challengee != "target" || len(txn.Witnesses) != len(rcpt.Witnesses) {
		t.Fatal("ToTxn mismatch")
	}
}

func TestHIP15TooClose(t *testing.T) {
	e := NewEngine()
	challengee := site("c", 33, -117)
	// Witness asserted 100 m away: invalid.
	wLoc := offset(33, -117, 0.1)
	valid, reason := e.JudgeWitness(challengee, wLoc, chain.WitnessReport{RSSIdBm: -80, Channel: 1})
	if valid || reason != "too_close" {
		t.Fatalf("100 m witness: valid=%v reason=%q", valid, reason)
	}
	// 500 m away: allowed (other rules permitting).
	wLoc2 := offset(33, -117, 0.5)
	valid2, _ := e.JudgeWitness(challengee, wLoc2, chain.WitnessReport{RSSIdBm: -90, Channel: 1})
	if !valid2 {
		t.Fatal("500 m witness rejected")
	}
	// Ablation: HIP15 off admits the close witness.
	e.DisableHIP15 = true
	valid3, _ := e.JudgeWitness(challengee, wLoc, chain.WitnessReport{RSSIdBm: -80, Channel: 1})
	if !valid3 {
		t.Fatal("HIP15-disabled close witness rejected")
	}
}

func TestRSSIHeuristics(t *testing.T) {
	e := NewEngine()
	challengee := site("c", 33, -117)
	far := offset(33, -117, 20)
	// Absurd value (§7.2).
	valid, reason := e.JudgeWitness(challengee, far, chain.WitnessReport{RSSIdBm: AbsurdRSSIValue, Channel: 0})
	if valid || reason != "rssi_too_high" {
		t.Fatalf("absurd RSSI: valid=%v reason=%q", valid, reason)
	}
	// Physically impossible: -50 dBm at 20 km beats free space.
	valid, reason = e.JudgeWitness(challengee, far, chain.WitnessReport{RSSIdBm: -50, Channel: 0})
	if valid || reason != "rssi_too_high" {
		t.Fatalf("impossible RSSI: valid=%v reason=%q", valid, reason)
	}
	// Too weak to be a real decode.
	valid, reason = e.JudgeWitness(challengee, far, chain.WitnessReport{RSSIdBm: -150, Channel: 0})
	if valid || reason != "rssi_too_low" {
		t.Fatalf("weak RSSI: valid=%v reason=%q", valid, reason)
	}
	// Plausible value passes.
	valid, _ = e.JudgeWitness(challengee, far, chain.WitnessReport{RSSIdBm: -115, Channel: 0})
	if !valid {
		t.Fatal("plausible RSSI rejected")
	}
}

func TestWrongChannel(t *testing.T) {
	e := NewEngine()
	challengee := site("c", 33, -117)
	w := offset(33, -117, 5)
	valid, reason := e.JudgeWitness(challengee, w, chain.WitnessReport{RSSIdBm: -100, Channel: 99})
	if valid || reason != "wrong_channel" {
		t.Fatalf("wrong channel: valid=%v reason=%q", valid, reason)
	}
}

func TestDisableValidity(t *testing.T) {
	e := NewEngine()
	e.DisableValidity = true
	challengee := site("c", 33, -117)
	valid, _ := e.JudgeWitness(challengee, offset(33, -117, 0.05), chain.WitnessReport{RSSIdBm: AbsurdRSSIValue, Channel: 99})
	if !valid {
		t.Fatal("validity-disabled engine rejected a witness")
	}
}

func TestGossipCliqueWitnessesWithoutReception(t *testing.T) {
	rng := stats.NewRNG(2)
	// Clique members 200 km apart cannot hear each other, but both
	// report witnessing.
	a := site("clique-a", 33, -117)
	a.Cheat.Clique = 7
	b := site("clique-b", 34.8, -117) // ~200 km north
	b.Cheat.Clique = 7
	challenger := site("challenger", 40, -100)
	f := NewFleet([]*Site{a, b, challenger})
	e := NewEngine()
	e.ConsiderRadiusKm = 300 // let the clique be found
	seen := false
	for i := 0; i < 20 && !seen; i++ {
		rcpt := e.RunChallenge(f, challenger, a, rng)
		for _, w := range rcpt.Witnesses {
			if w.Witness == "clique-b" {
				seen = true
			}
		}
	}
	if !seen {
		t.Fatal("clique member never fabricated a witness")
	}
	// An honest pair at that distance never witnesses.
	honestA := site("honest-a", 33, -110)
	honestB := site("honest-b", 34.8, -110)
	f2 := NewFleet([]*Site{honestA, honestB, challenger})
	for i := 0; i < 20; i++ {
		rcpt := e.RunChallenge(f2, challenger, honestA, rng)
		for _, w := range rcpt.Witnesses {
			if w.Witness == "honest-b" {
				t.Fatal("honest witness at 200 km")
			}
		}
	}
}

func TestSilentMoverGeometry(t *testing.T) {
	rng := stats.NewRNG(3)
	// Mover asserted in "Florida" but physically in "Pennsylvania";
	// its witnesses cluster around the actual location (§7.1).
	mover := site("joyful-pink-skunk", 28, -81) // asserted: Florida
	mover.Actual = geo.Point{Lat: 40.3, Lon: -76.9}
	if geo.HaversineKm(mover.Asserted, mover.Actual) < 100 {
		t.Fatal("mover within 100 km of its asserted location")
	}
	neighbors := []*Site{mover, site("challenger", 45, -90)}
	for i := 0; i < 6; i++ {
		p := geo.Destination(mover.Actual, float64(i)*60, 2)
		s := site("pa-w", p.Lat, p.Lon)
		s.Address += string(rune('0' + i))
		s.Asserted, s.Actual = p, p
		neighbors = append(neighbors, s)
	}
	f := NewFleet(neighbors)
	e := NewEngine()
	rcpt := e.RunChallenge(f, neighbors[1], mover, rng)
	if len(rcpt.Witnesses) == 0 {
		t.Fatal("mover produced no witnesses at its actual location")
	}
	// The audit's signal: witnesses' asserted locations are ~1500 km
	// from the challengee's asserted location.
	for _, wp := range rcpt.WitnessAsserted {
		if geo.HaversineKm(wp, mover.Asserted) < 1000 {
			t.Fatal("witness unexpectedly near the asserted location")
		}
	}
}

func TestOfflineSitesDoNotWitness(t *testing.T) {
	rng := stats.NewRNG(5)
	challengee := site("c", 33, -117)
	off := site("off", 33.01, -117)
	off.Online = false
	f := NewFleet([]*Site{challengee, off, site("challenger", 34, -117)})
	e := NewEngine()
	for i := 0; i < 10; i++ {
		rcpt := e.RunChallenge(f, f.Sites[2], challengee, rng)
		for _, w := range rcpt.Witnesses {
			if w.Witness == "off" {
				t.Fatal("offline hotspot witnessed")
			}
		}
	}
}
