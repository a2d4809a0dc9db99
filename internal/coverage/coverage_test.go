package coverage

import (
	"math"
	"testing"

	"peoplesnet/internal/chain"
	"peoplesnet/internal/geo"
	"peoplesnet/internal/h3lite"
	"peoplesnet/internal/stats"
)

// denverish scatters n points around Denver.
func denverish(n int, rng *stats.RNG) []geo.Point {
	center := geo.Point{Lat: 39.74, Lon: -104.99}
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Destination(center, rng.Float64()*360, rng.Float64()*20)
	}
	return pts
}

// challengeAround builds a challenge with valid witnesses ringKm from
// the challengee.
func challengeAround(c geo.Point, nWitness int, ringKm float64, rssi float64) Challenge {
	ch := Challenge{Challengee: c}
	for i := 0; i < nWitness; i++ {
		ch.Witnesses = append(ch.Witnesses, Witness{
			Location: geo.Destination(c, float64(i)*360/float64(nWitness), ringKm),
			RSSIdBm:  rssi,
			Valid:    true,
		})
	}
	return ch
}

func TestRadius300m(t *testing.T) {
	rng := stats.NewRNG(1)
	e := NewConusEstimator()
	hotspots := denverish(500, rng)
	res := e.Radius300m(hotspots)
	// 500 discs of 0.283 km² ≈ 141 km² (less overlap) out of ~8M km².
	if res.Fraction <= 0 || res.Fraction > 0.001 {
		t.Fatalf("300m fraction = %v", res.Fraction)
	}
	wantArea := 500 * 0.2827
	if res.CoveredKm2 < wantArea*0.5 || res.CoveredKm2 > wantArea*1.3 {
		t.Fatalf("covered = %v km², want ~%v", res.CoveredKm2, wantArea)
	}
	// Invalid and (0,0) hotspots are ignored.
	junk := append(hotspots, geo.Point{}, geo.Point{Lat: 99, Lon: 0})
	res2 := e.Radius300m(junk)
	if res2.CoveredKm2 > res.CoveredKm2*1.01 {
		t.Fatal("junk locations added coverage")
	}
}

func TestModelOrdering(t *testing.T) {
	// The paper's central finding for Fig 12: 300m < hull-25km <
	// radial+RSSI. Construct challenges with 5 km witness rings.
	rng := stats.NewRNG(2)
	e := NewConusEstimator()
	hotspots := denverish(200, rng)
	var challenges []Challenge
	for i := 0; i < 200; i += 2 {
		challenges = append(challenges, challengeAround(hotspots[i], 5, 5, -108))
	}
	s := e.Evaluate(hotspots, challenges)
	if !(s.Radius300m.Fraction < s.Hull25km.Fraction) {
		t.Fatalf("300m (%v) should be below hull (%v)", s.Radius300m.Fraction, s.Hull25km.Fraction)
	}
	if !(s.Hull25km.Fraction < s.RadialRSSI.Fraction) {
		t.Fatalf("hull (%v) should be below radial+RSSI (%v)", s.Hull25km.Fraction, s.RadialRSSI.Fraction)
	}
}

// TestEvaluateSharesPrunedHulls checks that Evaluate, which builds the
// 25 km hulls once for both models that use them, answers bit for bit
// what separate ConvexHulls(…, 25) and RadialRSSI calls answer.
func TestEvaluateSharesPrunedHulls(t *testing.T) {
	rng := stats.NewRNG(3)
	e := NewConusEstimator()
	hotspots := denverish(120, rng)
	var challenges []Challenge
	for i, h := range hotspots {
		ch := challengeAround(h, 3+i%4, 2+rng.Float64()*10, -90-rng.Float64()*30)
		// A witness beyond the cutoff and an invalid one, so the
		// pruned hulls differ from the unpruned ones.
		ch.Witnesses = append(ch.Witnesses,
			Witness{Location: geo.Destination(h, rng.Float64()*360, 40), RSSIdBm: -110, Valid: true},
			Witness{Location: geo.Destination(h, rng.Float64()*360, 8), RSSIdBm: -70, Valid: false})
		challenges = append(challenges, ch)
	}
	s := e.Evaluate(hotspots, challenges)
	for _, m := range []struct {
		name      string
		got, want geo.CoverageResult
	}{
		{"hull-25km", s.Hull25km, e.ConvexHulls(challenges, WitnessCutoffKm)},
		{"radial+rssi", s.RadialRSSI, e.RadialRSSI(challenges)},
	} {
		same := m.got.GridCells == m.want.GridCells
		for _, f := range [][2]float64{
			{m.got.LandmassKm2, m.want.LandmassKm2},
			{m.got.CoveredKm2, m.want.CoveredKm2},
			{m.got.Fraction, m.want.Fraction},
		} {
			same = same && math.Float64bits(f[0]) == math.Float64bits(f[1])
		}
		if !same {
			t.Fatalf("%s: Evaluate %+v, separate call %+v", m.name, m.got, m.want)
		}
	}
	if s.ConvexHull.CoveredKm2 <= s.Hull25km.CoveredKm2 {
		t.Fatalf("unpruned hulls (%v km²) should cover more than pruned (%v km²)",
			s.ConvexHull.CoveredKm2, s.Hull25km.CoveredKm2)
	}
}

func TestHullCutoffPrunesFarWitnesses(t *testing.T) {
	e := NewConusEstimator()
	c := geo.Point{Lat: 39.74, Lon: -104.99}
	// One absurd witness 400 km away (a silent mover) inflates the
	// unpruned hull; the 25 km cutoff removes it.
	ch := challengeAround(c, 5, 5, -110)
	ch.Witnesses = append(ch.Witnesses, Witness{
		Location: geo.Destination(c, 10, 400), RSSIdBm: -100, Valid: true,
	})
	full := e.ConvexHulls([]Challenge{ch}, 0)
	pruned := e.ConvexHulls([]Challenge{ch}, WitnessCutoffKm)
	if full.CoveredKm2 <= pruned.CoveredKm2*5 {
		t.Fatalf("unpruned hull %v km² should dwarf pruned %v km²", full.CoveredKm2, pruned.CoveredKm2)
	}
}

func TestInvalidWitnessesExcluded(t *testing.T) {
	e := NewConusEstimator()
	c := geo.Point{Lat: 39.74, Lon: -104.99}
	ch := Challenge{Challengee: c}
	for i := 0; i < 6; i++ {
		ch.Witnesses = append(ch.Witnesses, Witness{
			Location: geo.Destination(c, float64(i)*60, 5),
			RSSIdBm:  -100,
			Valid:    false, // all invalid
		})
	}
	res := e.ConvexHulls([]Challenge{ch}, 0)
	if res.CoveredKm2 > 1 {
		t.Fatalf("invalid witnesses built a hull: %v km²", res.CoveredKm2)
	}
	if WitnessDistanceCDF([]Challenge{ch}).N() != 0 {
		t.Fatal("invalid witnesses entered the distance CDF")
	}
}

func TestRSSIGrowthIsSmall(t *testing.T) {
	// §8.2.1: at the median −108 dBm, RSSI adds only ~20 m. The
	// radial+RSSI area with −108 witnesses must be only slightly above
	// pure radial growth at hull scale.
	e := NewConusEstimator()
	c := geo.Point{Lat: 39.74, Lon: -104.99}
	strong := e.RadialRSSI([]Challenge{challengeAround(c, 6, 2, -60)})
	weak := e.RadialRSSI([]Challenge{challengeAround(c, 6, 2, -108)})
	if strong.CoveredKm2 <= weak.CoveredKm2 {
		t.Fatalf("stronger RSSI should grow coverage: %v vs %v", strong.CoveredKm2, weak.CoveredKm2)
	}
	// −60 dBm grows by 10^(74/20) ≈ 5 km; −108 by ~20 m on a 2 km
	// radius. Expect a visible but bounded gap.
	if strong.CoveredKm2 > weak.CoveredKm2*20 {
		t.Fatalf("growth out of proportion: %v vs %v", strong.CoveredKm2, weak.CoveredKm2)
	}
}

func TestWitnessCDFs(t *testing.T) {
	c := geo.Point{Lat: 40, Lon: -100}
	chs := []Challenge{
		challengeAround(c, 4, 2, -100),
		challengeAround(c, 4, 10, -115),
	}
	dist := WitnessDistanceCDF(chs)
	if dist.N() != 8 {
		t.Fatalf("distance samples = %d", dist.N())
	}
	if dist.Min() < 1.9 || dist.Max() > 10.1 {
		t.Fatalf("distance range = [%v, %v]", dist.Min(), dist.Max())
	}
	rssi := WitnessRSSICDF(chs)
	if rssi.N() != 8 || rssi.Median() > -99 || rssi.Median() < -116 {
		t.Fatalf("rssi cdf n=%d median=%v", rssi.N(), rssi.Median())
	}
}

func TestFromChain(t *testing.T) {
	c := chain.NewChain(chain.DefaultGenesis)
	loc := func(lat, lon float64) h3lite.Cell {
		return h3lite.FromLatLon(geo.Point{Lat: lat, Lon: lon}, 12)
	}
	c.AppendBlock(1, []chain.Txn{
		&chain.AddGateway{Gateway: "a", Owner: "w"},
		&chain.AddGateway{Gateway: "b", Owner: "w"},
	})
	c.AppendBlock(2, []chain.Txn{
		&chain.PoCReceipt{
			Challenger: "a", Challengee: "b", ChallengeeLocation: loc(40, -100),
			Witnesses: []chain.WitnessReport{
				{Witness: "a", RSSIdBm: -105, Valid: true, Location: loc(40.01, -100)},
				{Witness: "a", RSSIdBm: -90, Valid: false, Location: loc(40.02, -100)},
			},
		},
		// A receipt without location is skipped.
		&chain.PoCReceipt{Challenger: "a", Challengee: "b"},
	})
	chs := FromChain(c)
	if len(chs) != 1 {
		t.Fatalf("challenges = %d", len(chs))
	}
	if len(chs[0].Witnesses) != 2 {
		t.Fatalf("witnesses = %d", len(chs[0].Witnesses))
	}
	if geo.HaversineKm(chs[0].Challengee, geo.Point{Lat: 40, Lon: -100}) > 0.05 {
		t.Fatalf("challengee decoded to %v", chs[0].Challengee)
	}
}

func TestModelString(t *testing.T) {
	if ModelRadius300m.String() != "300m-radius" || ModelRadialRSSI.String() != "radial+rssi" {
		t.Fatal("model names wrong")
	}
	if Model(99).String() != "unknown-model" {
		t.Fatal("unknown model name")
	}
}

func TestHullPolygonsAndGeoJSON(t *testing.T) {
	c := geo.Point{Lat: 39.74, Lon: -104.99}
	chs := []Challenge{
		challengeAround(c, 5, 5, -108),
		{Challengee: c}, // no witnesses → no hull
	}
	hulls := HullPolygons(chs, WitnessCutoffKm)
	if len(hulls) != 1 {
		t.Fatalf("hulls = %d", len(hulls))
	}
	coords := hulls[0].GeoJSONCoordinates()
	if len(coords) != 1 {
		t.Fatal("geojson should have one ring")
	}
	ring := coords[0]
	if len(ring) != len(hulls[0].Vertices)+1 {
		t.Fatalf("ring not closed: %d vs %d vertices", len(ring), len(hulls[0].Vertices))
	}
	if ring[0] != ring[len(ring)-1] {
		t.Fatal("ring endpoints differ")
	}
	// GeoJSON is [lon, lat].
	if ring[0][0] > 0 || ring[0][1] < 0 {
		t.Fatalf("coordinate order wrong: %v", ring[0])
	}
	if (geo.Polygon{}).GeoJSONCoordinates() != nil {
		t.Fatal("empty polygon should render nil")
	}
}
