package peoplesnet

import (
	"path/filepath"
	"reflect"
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

// TestMeasureReopenedStore: a durable store reopened on its own, with
// no chain attached, measures to the same chain analyses as Measure
// over the world that built it, because every analysis reads only the
// store's transactions.
func TestMeasureReopenedStore(t *testing.T) {
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
	got, want := MeasureStore(s2, w), Measure(w)
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"Summary", got.Summary, want.Summary},
		{"Moves", got.Moves, want.Moves},
		{"Growth", got.Growth, want.Growth},
		{"Ownership", got.Ownership, want.Ownership},
		{"Resale", got.Resale, want.Resale},
		{"Traffic", got.Traffic, want.Traffic},
		{"Routers", got.Routers, want.Routers},
		{"Audit", got.Audit, want.Audit},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s of the reopened store diverges from Measure\n got: %+v\nwant: %+v", c.name, c.got, c.want)
		}
	}
	if got.Ownership.Hotspots == 0 || got.Routers.OUIs == 0 || len(got.Ownership.Bulk) == 0 {
		t.Fatalf("world too small to compare: %d hotspots, %d OUIs, %d bulk owners",
			got.Ownership.Hotspots, got.Routers.OUIs, len(got.Ownership.Bulk))
	}
}
