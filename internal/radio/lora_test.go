package radio

import (
	"math"
	"testing"

	"peoplesnet/internal/stats"
)

func TestSensitivityOrdering(t *testing.T) {
	// Higher SF = better sensitivity (more negative).
	prev := 0.0
	for sf := SF7; sf <= SF12; sf++ {
		s := Sensitivity(sf, BW125)
		if sf > SF7 && s >= prev {
			t.Fatalf("sensitivity not monotone at %v: %v >= %v", sf, s, prev)
		}
		prev = s
	}
	// Wider bandwidth = worse sensitivity.
	if Sensitivity(SF9, BW500) <= Sensitivity(SF9, BW125) {
		t.Fatal("BW500 should be less sensitive than BW125")
	}
}

func TestSensitivityValues(t *testing.T) {
	if got := Sensitivity(SF12, BW125); got != -137 {
		t.Fatalf("SF12/125 sensitivity = %v", got)
	}
	if got := Sensitivity(SF7, BW125); got != -123 {
		t.Fatalf("SF7/125 sensitivity = %v", got)
	}
}

func TestAirtimeKnownValue(t *testing.T) {
	// SF7/125kHz, 20-byte payload ≈ 56.6 ms (standard LoRa calculator
	// output with 8-symbol preamble, explicit header, CR4/5, CRC).
	got := Airtime(20, SF7, BW125) * 1000
	if math.Abs(got-56.6) > 1 {
		t.Fatalf("airtime SF7/20B = %v ms, want ~56.6", got)
	}
	// SF12/125kHz, 20 bytes ≈ 1.32 s.
	got12 := Airtime(20, SF12, BW125)
	if math.Abs(got12-1.32) > 0.15 {
		t.Fatalf("airtime SF12/20B = %v s, want ~1.32", got12)
	}
}

func TestAirtimeMonotonicity(t *testing.T) {
	for sf := SF7; sf < SF12; sf++ {
		if Airtime(20, sf, BW125) >= Airtime(20, sf+1, BW125) {
			t.Fatalf("airtime should grow with SF (at %v)", sf)
		}
	}
	if Airtime(10, SF9, BW125) >= Airtime(100, SF9, BW125) {
		t.Fatal("airtime should grow with payload")
	}
	if Airtime(20, SF9, BW500) >= Airtime(20, SF9, BW125) {
		t.Fatal("airtime should shrink with bandwidth")
	}
	if Airtime(-1, SF9, BW125) != 0 || Airtime(10, SpreadingFactor(99), BW125) != 0 {
		t.Fatal("invalid inputs should yield 0")
	}
}

func TestFSPL(t *testing.T) {
	// 1 km @ 915 MHz ≈ 91.7 dB.
	got := FSPLdB(1, 915)
	if math.Abs(got-91.7) > 0.3 {
		t.Fatalf("FSPL(1km, 915MHz) = %v", got)
	}
	// +6 dB per distance doubling.
	if d := FSPLdB(2, 915) - FSPLdB(1, 915); math.Abs(d-6.02) > 0.05 {
		t.Fatalf("doubling delta = %v", d)
	}
	if FSPLdB(0, 915) != 0 || FSPLdB(-5, 915) != 0 {
		t.Fatal("non-positive distance should yield 0")
	}
}

func TestFSPLRangeM(t *testing.T) {
	// Paper §8.2.1: at witness RSSI −108 dBm and sensitivity −134 dBm
	// the growth is ≈20 m.
	got := FSPLRangeM(-108, DeviceSensitivityDBm)
	if math.Abs(got-19.95) > 0.1 {
		t.Fatalf("FSPLRangeM(-108, -134) = %v m, want ~20", got)
	}
	if FSPLRangeM(-140, -134) != 0 {
		t.Fatal("negative margin should yield 0 range")
	}
}

func TestPathLossMonotone(t *testing.T) {
	m := NewPathLoss(Urban, 915)
	prev := -1.0
	for _, d := range []float64{0.05, 0.1, 0.3, 1, 3, 10} {
		loss := m.MedianLossDB(d)
		if loss <= prev {
			t.Fatalf("path loss not monotone at %v km", d)
		}
		prev = loss
	}
}

func TestPathLossEnvironmentOrdering(t *testing.T) {
	// At the same distance, harsher environments lose more.
	d := 2.0
	envs := []Environment{FreeSpace, Rural, Suburban, Urban, DenseUrban}
	prev := -1.0
	for _, e := range envs {
		loss := NewPathLoss(e, 915).MedianLossDB(d)
		if loss <= prev {
			t.Fatalf("%v loss %v not above previous %v", e, loss, prev)
		}
		prev = loss
	}
}

func TestShadowingVariance(t *testing.T) {
	m := NewPathLoss(Urban, 915)
	rng := stats.NewRNG(1)
	med := m.MedianLossDB(1)
	varied := false
	for i := 0; i < 100; i++ {
		if math.Abs(m.SampleLossDB(1, rng)-med) > 1 {
			varied = true
			break
		}
	}
	if !varied {
		t.Fatal("shadowing produced no variation")
	}
	if m.SampleLossDB(1, nil) != med {
		t.Fatal("nil rng should return median")
	}
}

func TestLinkRSSIAndRange(t *testing.T) {
	link := Link{
		TxPowerDBm: 27, TxGainDBi: 3, RxGainDBi: 3,
		Model: NewPathLoss(FreeSpace, 915),
	}
	sens := Sensitivity(SF12, BW125)
	// Free space: generous range, tens of km at SF12.
	if rssi := link.RSSI(15, nil); rssi < sens {
		t.Fatalf("free-space RSSI at 15 km = %v, below SF12 sensitivity %v", rssi, sens)
	}
	// Urban range collapses to a few km.
	urban := link
	urban.Model = NewPathLoss(Urban, 915)
	if rssi := urban.RSSI(0.5, nil); rssi < sens {
		t.Fatalf("urban RSSI at 0.5 km = %v, below SF12 sensitivity %v", rssi, sens)
	}
	if rssi := urban.RSSI(10, nil); rssi >= sens {
		t.Fatalf("urban RSSI at 10 km = %v, not below SF12 sensitivity %v", rssi, sens)
	}
}

func TestDelivered(t *testing.T) {
	rng := stats.NewRNG(2)
	sens := Sensitivity(SF9, BW125)
	if !Delivered(sens+10, SF9, BW125, rng) {
		t.Fatal("strong signal not delivered")
	}
	if Delivered(sens-10, SF9, BW125, rng) {
		t.Fatal("weak signal delivered")
	}
	// In the roll-off window delivery is probabilistic.
	hits := 0
	for i := 0; i < 1000; i++ {
		if Delivered(sens, SF9, BW125, rng) {
			hits++
		}
	}
	if hits < 300 || hits > 700 {
		t.Fatalf("at-sensitivity delivery rate = %d/1000, want ~500", hits)
	}
	// Deterministic midpoint without rng.
	if !Delivered(sens+0.1, SF9, BW125, nil) {
		t.Fatal("nil-rng midpoint should threshold at 0.5")
	}
}

func TestSpreadingFactorValid(t *testing.T) {
	if !SF7.Valid() || !SF12.Valid() {
		t.Fatal("valid SFs rejected")
	}
	if SpreadingFactor(6).Valid() || SpreadingFactor(13).Valid() {
		t.Fatal("invalid SFs accepted")
	}
	if SF9.String() != "SF9" {
		t.Fatal(SF9.String())
	}
}
