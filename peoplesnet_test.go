package peoplesnet

import (
	"path/filepath"
	"strings"
	"testing"

	"peoplesnet/internal/etl"
)

func TestSimulateMeasureRender(t *testing.T) {
	world, err := Simulate(SmallWorld(5))
	if err != nil {
		t.Fatal(err)
	}
	study := Measure(world)
	report := study.RenderText()
	for _, want := range []string{
		"§3 Transaction mix",
		"Fig 2", "Fig 3", "Fig 4", "Fig 5",
		"ownership", "Fig 7", "Fig 8",
		"Table 1", "Fig 10/11", "incentive audit",
		"Spectrum",
	} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q", want)
		}
	}
	if len(report) < 1500 {
		t.Fatalf("report too short: %d bytes", len(report))
	}
}

func TestCoverageStudy(t *testing.T) {
	world, err := Simulate(SmallWorld(6))
	if err != nil {
		t.Fatal(err)
	}
	cov := CoverageStudy(world)
	if cov.Hotspots == 0 || cov.Challenges == 0 {
		t.Fatalf("coverage inputs empty: %+v", cov)
	}
	// Fig 12's ordering at any scale.
	if !(cov.Radius300m.Fraction <= cov.RadialRSSI.Fraction) {
		t.Fatalf("model ordering broken: 300m %v > radial %v",
			cov.Radius300m.Fraction, cov.RadialRSSI.Fraction)
	}
	if cov.WitnessDistKm.N() == 0 || cov.WitnessRSSI.N() == 0 {
		t.Fatal("witness CDFs empty")
	}
	// Fig 14: witness RSSIs are LoRa-plausible (median around
	// −110 dBm).
	med := cov.WitnessRSSI.Median()
	if med > -70 || med < -135 {
		t.Fatalf("witness RSSI median = %v", med)
	}
}

func TestRunFieldFacade(t *testing.T) {
	res, err := RunField(SuburbanWalkExperiment(9))
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent == 0 || res.PRR() <= 0 {
		t.Fatalf("field experiment empty: %+v", res)
	}
}

// TestMeasureStoreNeedsLedger: a store reaches MeasureStore with its
// source chain's ledger attached. A durable store reopened on its own
// has none, and MeasureStore says so at once, naming the calls that
// attach one, rather than dereferencing nil inside an analysis.
func TestMeasureStoreNeedsLedger(t *testing.T) {
	cfg := SmallWorld(8)
	cfg.Days = 200
	cfg.TargetHotspots = 150
	cfg.Towns = 40
	w, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "store")
	s, err := etl.Open(dir, etl.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.BulkLoad(w.Chain); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := etl.Open(dir, etl.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	defer func() {
		msg, _ := recover().(string)
		for _, want := range []string{"FromChain", "BulkLoad", "FollowChain"} {
			if !strings.Contains(msg, want) {
				t.Errorf("panic %q does not name %s", msg, want)
			}
		}
	}()
	MeasureStore(s2, nil)
	t.Error("MeasureStore measured a store with no ledger")
}
