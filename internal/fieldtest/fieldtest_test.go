package fieldtest

import (
	"testing"

	"peoplesnet/internal/geo"
	"peoplesnet/internal/radio"
)

func TestBestCaseScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("24 virtual hours; skipped in -short")
	}
	res, err := Run(BestCase(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent < 1000 {
		t.Fatalf("only %d packets in 24 h", res.Sent)
	}
	prr := res.PRR()
	// Paper §8.1: 68.61% in the outage-affected run. Shape target:
	// PRR noticeably below perfect, above half.
	if prr < 0.55 || prr > 0.85 {
		t.Fatalf("best-case PRR = %v, want ~0.69", prr)
	}
	// Outage windows force long miss runs.
	_, _, longest := res.MissRunStats()
	if longest < 100 {
		t.Fatalf("longest miss run = %d; outages should produce multi-hour gaps", longest)
	}
	if res.IncorrectAck != 0 {
		t.Fatalf("incorrect ACKs = %d, paper found none", res.IncorrectAck)
	}
}

func TestResidentialScenario(t *testing.T) {
	res, err := Run(Residential(2))
	if err != nil {
		t.Fatal(err)
	}
	prr := res.PRR()
	// Paper: 73.2% with no significant gaps; mostly single misses.
	if prr < 0.6 || prr > 0.9 {
		t.Fatalf("residential PRR = %v, want ~0.73", prr)
	}
	single, atMostDouble, longest := res.MissRunStats()
	if single < 0.5 {
		t.Fatalf("single-miss fraction = %v, want most misses isolated", single)
	}
	if atMostDouble < single {
		t.Fatal("miss-run fractions inconsistent")
	}
	if longest > 100 {
		t.Fatalf("longest run = %d; no outages configured", longest)
	}
}

func TestWalkScenarios(t *testing.T) {
	urban, err := Run(UrbanWalk(3))
	if err != nil {
		t.Fatal(err)
	}
	suburban, err := Run(SuburbanWalk(3))
	if err != nil {
		t.Fatal(err)
	}
	if urban.Sent < 300 || suburban.Sent < 200 {
		t.Fatalf("sent counts: urban %d suburban %d", urban.Sent, suburban.Sent)
	}
	for name, r := range map[string]*Result{"urban": urban, "suburban": suburban} {
		prr := r.PRR()
		if prr < 0.5 || prr > 0.95 {
			t.Fatalf("%s PRR = %v", name, prr)
		}
		if r.IncorrectAck != 0 {
			t.Fatalf("%s incorrect ACKs = %d, paper found none", name, r.IncorrectAck)
		}
		if r.IncorrectNack == 0 {
			t.Fatalf("%s has no incorrect NACKs; downlink asymmetry should produce some", name)
		}
		total := r.CorrectAck + r.CorrectNack + r.IncorrectAck + r.IncorrectNack
		if total != r.Sent {
			t.Fatalf("%s validity cells (%d) != sent (%d)", name, total, r.Sent)
		}
	}
}

func TestHIP15AccuracyComputation(t *testing.T) {
	cfg := UrbanWalk(4)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	within, outside := res.HIP15Accuracy(cfg.Hotspots)
	// The paper's point: the 300 m promise is unreliable — the
	// within-radius prediction is barely better than a coin flip
	// (55.5%), while absence prediction is decent (79.6%). Require the
	// qualitative ordering.
	if within <= 0 || within > 0.98 {
		t.Fatalf("within-radius accuracy = %v", within)
	}
	if outside <= 0 {
		t.Fatalf("outside accuracy = %v", outside)
	}
}

func TestAckValidityTableShape(t *testing.T) {
	res, err := Run(UrbanWalk(5))
	if err != nil {
		t.Fatal(err)
	}
	// Table 2's key qualitative findings: correct ACKs are the
	// plurality, no false ACKs, false NACKs are a nontrivial minority.
	if res.CorrectAck == 0 || res.CorrectNack == 0 {
		t.Fatalf("degenerate table: %+v", res)
	}
	fracIncorrectNack := float64(res.IncorrectNack) / float64(res.Sent)
	if fracIncorrectNack < 0.02 || fracIncorrectNack > 0.45 {
		t.Fatalf("incorrect NACK fraction = %v, want roughly 10-25%%", fracIncorrectNack)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("no hotspots accepted")
	}
	cfg := Config{
		Hotspots:    []Hotspot{{Address: "x", Loc: geo.Point{Lat: 1, Lon: 1}, Env: radio.Rural, Online: true}},
		DeviceLoc:   geo.Point{Lat: 1, Lon: 1.001},
		DurationSec: 0,
	}
	if _, err := Run(cfg); err == nil {
		t.Fatal("zero duration accepted")
	}
	// Device too far from any hotspot: join fails with a clear error.
	far := Config{
		Hotspots:    []Hotspot{{Address: "x", Loc: geo.Point{Lat: 1, Lon: 1}, Env: radio.Urban, Online: true}},
		DeviceLoc:   geo.Point{Lat: 5, Lon: 5},
		DurationSec: 60,
	}
	if _, err := Run(far); err == nil {
		t.Fatal("unjoinable config accepted")
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Run(Residential(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Residential(42))
	if err != nil {
		t.Fatal(err)
	}
	if a.Sent != b.Sent || a.CloudReceived != b.CloudReceived || a.CorrectAck != b.CorrectAck {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	c, err := Run(Residential(43))
	if err != nil {
		t.Fatal(err)
	}
	if a.Sent == c.Sent && a.CloudReceived == c.CloudReceived && a.CorrectAck == c.CorrectAck {
		t.Fatal("different seeds produced identical results")
	}
}

func TestFig16Diagnostics(t *testing.T) {
	res := runScenario(t, "residential", Residential, 7).res
	// Fig 16: multiple hotspots ferry data for the residential sensor.
	if len(res.Ferried) < 2 {
		t.Fatalf("only %d hotspots ferried data", len(res.Ferried))
	}
	total := 0
	for hs, n := range res.Ferried {
		total += n
		cdf := res.RSSIByHotspot[hs]
		if cdf == nil || cdf.N() != n {
			t.Fatalf("RSSI samples for %s = %v, deliveries %d", hs, cdf, n)
		}
		// RSSIs are LoRa-plausible.
		if cdf.Max() > -20 || cdf.Min() < -150 {
			t.Fatalf("%s RSSI range [%v, %v]", hs, cdf.Min(), cdf.Max())
		}
	}
	// Duplicate copies mean ferried totals exceed cloud receptions.
	if total < res.CloudReceived {
		t.Fatalf("ferried %d < received %d", total, res.CloudReceived)
	}
	// The strong nearby hotspot reports much higher RSSI than the ring
	// (the paper's -55 vs -90..-120 spread).
	own, ok := res.RSSIByHotspot["authors-own"]
	if ok && own.N() > 10 {
		for hs, cdf := range res.RSSIByHotspot {
			if hs != "authors-own" && cdf.N() > 10 && cdf.Median() > own.Median() {
				t.Fatalf("ring hotspot %s median %v above own hotspot %v", hs, cdf.Median(), own.Median())
			}
		}
	}
}
