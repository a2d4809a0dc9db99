package simnet

import (
	"testing"

	"peoplesnet/internal/chain"
	"peoplesnet/internal/econ"
	"peoplesnet/internal/geo"
	"peoplesnet/internal/stats"
)

// newSim builds a simulator shell without running the daily loop, for
// unit-testing individual step models.
func newSim(t *testing.T, cfg Config) *simulator {
	t.Helper()
	w := newWorld(cfg)
	c := chain.NewChain(cfg.Start)
	return &simulator{
		cfg: cfg, w: w, c: c,
		res: &Result{Cfg: cfg, Chain: c, World: w},
		rng: stats.NewRNG(cfg.Seed).Split("coordinator"),
	}
}

func TestGrowthCurveCalibration(t *testing.T) {
	cfg := TestConfig(1)
	s := newSim(t, cfg)
	total := 0
	mid := 0
	for d := 0; d < cfg.Days; d++ {
		n := s.growthAdds(d)
		total += n
		if d == cfg.Days*587/667 {
			mid = total
		}
	}
	// Cumulative lands near the target.
	if total < cfg.TargetHotspots*8/10 || total > cfg.TargetHotspots*12/10 {
		t.Fatalf("cumulative adds = %d, target %d", total, cfg.TargetHotspots)
	}
	// The paper's mid-point ratio (≈45% of final count at 88% of the
	// timeline) — the exponential shape.
	ratio := float64(mid) / float64(total)
	if ratio < 0.3 || ratio > 0.6 {
		t.Fatalf("mid/end ratio = %v", ratio)
	}
}

func TestMoveIntervalDistribution(t *testing.T) {
	s := newSim(t, TestConfig(2))
	n := 20000
	within1, within7, within30 := 0, 0, 0
	for i := 0; i < n; i++ {
		dt := moveInterval(s.rng)
		if dt < 0 {
			t.Fatal("negative interval")
		}
		if dt < 1 {
			within1++
		}
		if dt < 7 {
			within7++
		}
		if dt < 30 {
			within30++
		}
	}
	// Fig 4 targets: 17.9 / 35.8 / 63.2 %.
	day := float64(within1) / float64(n)
	week := float64(within7) / float64(n)
	month := float64(within30) / float64(n)
	if day < 0.14 || day > 0.22 {
		t.Fatalf("within-day = %v, want ≈0.179", day)
	}
	if week < 0.30 || week > 0.42 {
		t.Fatalf("within-week = %v, want ≈0.358", week)
	}
	if month < 0.55 || month > 0.72 {
		t.Fatalf("within-month = %v, want ≈0.632", month)
	}
}

func TestIntlShareRamp(t *testing.T) {
	cfg := TestConfig(3)
	s := newSim(t, cfg)
	if s.intlShare(0) != 0 || s.intlShare(cfg.InternationalLaunchDay-1) != 0 {
		t.Fatal("international share before launch")
	}
	end := s.intlShare(cfg.Days - 1)
	if end < cfg.IntlShareEnd*0.9 {
		t.Fatalf("end share = %v, want ≈%v", end, cfg.IntlShareEnd)
	}
	mid := s.intlShare((cfg.InternationalLaunchDay + cfg.Days) / 2)
	if mid <= 0 || mid >= end {
		t.Fatalf("ramp not monotone: mid %v end %v", mid, end)
	}
}

func TestPacketsPerDayArbitrageWindow(t *testing.T) {
	cfg := TestConfig(4)
	s := newSim(t, cfg)
	// Populate enough hotspots for nonzero organic traffic.
	for i := 0; i < cfg.TargetHotspots/10; i++ {
		s.w.Hotspots = append(s.w.Hotspots, &HotspotState{Index: i})
	}
	dcLive := s.dayOf(econ.DCPaymentsLiveDate)
	preConsole, _, preSpam := s.packetsPerDay(dcLive - 5)
	_, _, spam := s.packetsPerDay(dcLive + 3)
	_, _, tail := s.packetsPerDay(s.dayOf(econ.HIP10Date) + 5)
	_, _, after := s.packetsPerDay(s.dayOf(econ.HIP10Date) + 30)
	if preSpam != 0 {
		t.Fatal("spam before DC payments went live")
	}
	if spam <= preConsole*5 {
		t.Fatalf("spam %d not dwarfing organic %d during window", spam, preConsole)
	}
	if tail >= spam || tail == 0 {
		t.Fatalf("HIP10 tail should decay: window %d tail %d", spam, tail)
	}
	if after != 0 {
		t.Fatalf("spam persists after tail: %d", after)
	}
}

func TestMakerEras(t *testing.T) {
	if maker(10) != "OG-Helium" || maker(300) != "RAK" {
		t.Fatal("early maker eras wrong")
	}
	late := map[string]bool{}
	for d := 500; d < 520; d++ {
		late[maker(d)] = true
	}
	if len(late) < 3 {
		t.Fatalf("late-era vendor diversity = %v", late)
	}
}

func TestCityGeography(t *testing.T) {
	w := newWorld(TestConfig(5))
	rng := stats.NewRNG(5)
	if len(w.usCityIdx)+len(w.intlCityIdx) != len(w.Cities) {
		t.Fatal("city partition broken")
	}
	// Launch gating: pickCity never returns international pre-launch.
	for i := 0; i < 300; i++ {
		c := w.pickCity(rng, 0, true)
		if w.Cities[c].Country != "US" {
			t.Fatalf("pre-launch pick: %s (%s)", w.Cities[c].Name, w.Cities[c].Country)
		}
	}
	// Post-launch intl picks are international.
	intl := w.pickCity(rng, 400, true)
	if w.Cities[intl].Country == "US" {
		t.Fatal("post-launch intl pick returned US")
	}
	// Placement stays within the city radius.
	for i := 0; i < 100; i++ {
		ci := w.pickCity(rng, 0, false)
		p := w.placeInCity(rng, ci)
		if geo.HaversineKm(p, w.Cities[ci].Center) > w.Cities[ci].RadiusKm()+0.1 {
			t.Fatalf("placement outside radius for %s", w.Cities[ci].Name)
		}
	}
}

func TestCityRadiusScaling(t *testing.T) {
	big := City{Population: 5_000_000}
	small := City{Population: 4_000}
	if big.RadiusKm() <= small.RadiusKm() {
		t.Fatal("city radius should grow with population")
	}
}

func TestOwnerClassString(t *testing.T) {
	if Individual.String() != "individual" || MiningPool.String() != "mining-pool" ||
		MegaOwner.String() != "mega-owner" || OwnerClass(42).String() == "" {
		t.Fatal("owner class strings wrong")
	}
}
