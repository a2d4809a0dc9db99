package peoplesnet

import (
	"os"
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

// TestMeasureStoreReportsLedgerErr: a durable store reopened without
// its ledger checkpoint replays the ledger from its blocks. A SmallWorld
// chain is built under a one-block PoC interval the replay ledger does
// not know, so the replay fails; MeasureStore must say so through
// LedgerErr, naming the failing block, instead of measuring an empty
// ledger silently, on every call, and the store's health note must
// record the failure.
func TestMeasureStoreReportsLedgerErr(t *testing.T) {
	w, err := Simulate(SmallWorld(3))
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
	if err := os.Remove(filepath.Join(dir, "ledger.ckpt")); err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}

	s2, err := etl.Open(dir, etl.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	// The failure must not be papered over by the first call: a second
	// measurement of the same store retries the replay and reports it
	// again.
	for call := 1; call <= 2; call++ {
		st := MeasureStore(s2, nil)
		if st.LedgerErr == nil {
			t.Fatalf("call %d: failed ledger replay left LedgerErr nil", call)
		}
		if !strings.Contains(st.LedgerErr.Error(), "replay block ") {
			t.Errorf("call %d: LedgerErr %q does not name the failing block", call, st.LedgerErr)
		}
		if s2.Ledger() != nil {
			t.Errorf("call %d: the store has a ledger attached after a failed replay", call)
		}
	}
	// The store's own health says the replay failed, and where.
	if note := s2.Health().CheckpointNote; !strings.Contains(note, "replay failed") || !strings.Contains(note, "replay block ") {
		t.Errorf("CheckpointNote %q does not record the failed replay and its block", note)
	}
	if fresh := MeasureStore(etl.FromChain(w.Chain), nil); fresh.LedgerErr != nil {
		t.Errorf("store with the chain's ledger attached: LedgerErr %v", fresh.LedgerErr)
	}
}
