package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"peoplesnet"
	"peoplesnet/internal/coverage"
	"peoplesnet/internal/geo"
)

// The reproduce workload is the researcher's batch job, the
// quickstart path: set-up generates the world; one operation is a
// full reproduction of the paper over it — §3–§7 (Measure), §8.2
// coverage (CoverageStudy) and the four §8 field experiments.

// fieldScenarios are the §8.1/§8.2.2 experiments a cycle runs, unchanged.
var fieldScenarios = []struct {
	name string
	cfg  func(seed uint64) peoplesnet.FieldConfig
}{
	{"best-case", peoplesnet.BestCaseExperiment},
	{"residential", peoplesnet.ResidentialExperiment},
	{"urban-walk", peoplesnet.UrbanWalkExperiment},
	{"suburban-walk", peoplesnet.SuburbanWalkExperiment},
}

// fieldSeed is the seed the field experiments run with: that of the
// default world, whatever --world-seed says. Each scenario freezes one
// shadowing draw per radio link for its whole run, which sets how many
// packets are ACKed, and the device's send log is copied on every ACK
// (ROADMAP item 1), so a cycle's cost swings twofold between seeds
// (12.9–26.3 s over seeds 11–15, against 5.3 s at seed 42). At seed 7
// BestCase is still the largest step of a cycle.
const fieldSeed = paperSeed

// reproduceSecondsPerCycle sets the number of measured cycles from
// --seconds (a cycle takes about 6.5 s on the box NOTES.md describes),
// so every run does the same work whatever the host's speed; there are
// at least minCycles, so every run can check that a repeated cycle
// reproduces the same artefacts.
const (
	reproduceSecondsPerCycle = 5
	minCycles                = 2
)

func runReproduce(cfg config) (*outcome, error) {
	world, setups, err := repeatSetup(cfg.tr,
		func(op, root int) (*peoplesnet.World, error) {
			sp := cfg.tr.begin(op, "simnet.generate", root)
			defer cfg.tr.end(sp)
			return peoplesnet.Simulate(cfg.world(cfg.worldSeed))
		},
		func(*peoplesnet.World) {})
	if err != nil {
		return nil, err
	}
	out := reproduceCycles(cfg, world, max(minCycles, cfg.seconds/reproduceSecondsPerCycle))
	out.setups = setups
	return out, nil
}

// reproduceCycles is the measured phase. Each cycle's artefacts are
// digested with the clock paused; a cycle whose digests differ from
// the first cycle's (the coverage study's: whose answer differs, see
// sameCoverage), whose calls fail, or whose field results do not add
// up counts as a failed operation.
//
// A cycle's freshness samples are one per artefact (Measure's
// analyses, the coverage study, each field result): the time from the
// cycle's start until that artefact is ready, which is how long the
// researcher's copy of it is out of date.
func reproduceCycles(cfg config, world *peoplesnet.World, cycles int) *outcome {
	tr := cfg.tr
	out := &outcome{layer: map[string]float64{}}
	first := map[string]string{}
	var firstCov coverage.Summary
	covUnrepeatable := 0
	var packets int
	var fieldTime time.Duration

	ph := startPhase()
	for i := 0; i < cycles; i++ {
		// Each cycle starts from a collected heap, untimed, so Measure
		// does not share the cores with collecting the previous
		// cycle's field experiments.
		ph.pause()
		runtime.GC()
		ph.resume()
		root := tr.begin(i, "bench.op", -1)
		start, paused := time.Now(), ph.pausedWall
		elapsed := func() time.Duration { return time.Since(start) - (ph.pausedWall - paused) }
		digests := map[string]string{}
		var errs []string

		sp := tr.begin(i, "core.measure", root)
		study := peoplesnet.Measure(world)
		out.fresh = append(out.fresh, elapsed())
		tr.end(sp)
		ph.pause()
		digests["measure"] = digest([]any{study.Summary, study.Moves, study.Growth, study.Ownership,
			study.Resale, study.Traffic, study.Routers, study.ISPs, study.Relays, study.Audit})
		study = nil
		ph.resume()

		sp = tr.begin(i, "coverage.study", root)
		cov := peoplesnet.CoverageStudy(world)
		out.fresh = append(out.fresh, elapsed())
		tr.end(sp)
		ph.pause()
		if i == 0 {
			firstCov = cov
		} else if err := sameCoverage(firstCov, cov); err != nil {
			errs = append(errs, fmt.Sprintf("coverage: cycle %d differs from cycle 0: %v", i, err))
		} else if digest(cov) != digest(firstCov) {
			covUnrepeatable++
		}
		ph.resume()

		for _, sc := range fieldScenarios {
			sp := tr.begin(i, "fieldtest."+sc.name, root)
			t := time.Now()
			res, err := peoplesnet.RunField(sc.cfg(fieldSeed))
			fieldTime += time.Since(t)
			out.fresh = append(out.fresh, elapsed())
			tr.end(sp)
			ph.pause()
			switch {
			case err != nil:
				errs = append(errs, fmt.Sprintf("%s: %v", sc.name, err))
			case res.CorrectAck+res.CorrectNack+res.IncorrectAck+res.IncorrectNack != len(res.Packets):
				errs = append(errs, fmt.Sprintf("%s: ACK outcomes sum to %d, %d packets", sc.name,
					res.CorrectAck+res.CorrectNack+res.IncorrectAck+res.IncorrectNack, len(res.Packets)))
			default:
				packets += len(res.Packets)
				digests[sc.name] = digest(res)
			}
			ph.resume()
		}
		out.lat = append(out.lat, elapsed())
		tr.end(root)
		out.ops++

		ph.pause()
		for name, dg := range digests {
			if i == 0 {
				first[name] = dg
			} else if first[name] != dg {
				errs = append(errs, fmt.Sprintf("%s: cycle %d digest %.12s differs from cycle 0 %.12s", name, i, dg, first[name]))
			}
		}
		if len(errs) > 0 {
			out.fail("cycle %d: %v", i, errs)
		}
		ph.resume()
	}
	out.phase = ph.stop()
	runtime.KeepAlive(world) // the world is part of the live heap the phase reports
	out.layer["fieldtest.packets_per_s"] = float64(packets) / fieldTime.Seconds()
	out.layer["coverage.unrepeatable_cycles"] = float64(covUnrepeatable)
	out.notes = append(out.notes, fmt.Sprintf("reproduce: %d cycles, artefact digests compared across cycles, %d field packets", out.ops, packets))
	if covUnrepeatable > 0 {
		out.notes = append(out.notes, fmt.Sprintf("reproduce: coverage of %d of %d repeated cycles equal to cycle 0's within %g but not bit-identical "+
			"(geo.Raster.Evaluate sums sub-cell areas in map order)", covUnrepeatable, out.ops-1, coverageTolerance))
	}
	return out
}

// coverageTolerance is the relative difference sameCoverage allows in a
// covered area. geo.Raster.Evaluate adds up the areas of small shapes in
// map iteration order, so two calls over one world can differ in the
// last bits of CoveredKm2 and Fraction (a few parts in 1e16); that
// breaks the repository's same-seed determinism rule, which the run
// reports as coverage.unrepeatable_cycles, but the answer is the same.
const coverageTolerance = 1e-9

// sameCoverage compares two coverage studies of one world: every count,
// grid size, land area and witness distribution exactly, the covered
// areas and fractions to within coverageTolerance.
func sameCoverage(a, b coverage.Summary) error {
	if a.Hotspots != b.Hotspots || a.Challenges != b.Challenges {
		return fmt.Errorf("hotspots %d/%d, challenges %d/%d", a.Hotspots, b.Hotspots, a.Challenges, b.Challenges)
	}
	if digest(a.WitnessDistKm) != digest(b.WitnessDistKm) || digest(a.WitnessRSSI) != digest(b.WitnessRSSI) {
		return fmt.Errorf("witness distributions differ")
	}
	for _, m := range []struct {
		name string
		a, b geo.CoverageResult
	}{
		{"radius300m", a.Radius300m, b.Radius300m},
		{"convex-hull", a.ConvexHull, b.ConvexHull},
		{"hull25km", a.Hull25km, b.Hull25km},
		{"radial-rssi", a.RadialRSSI, b.RadialRSSI},
	} {
		if m.a.LandmassKm2 != m.b.LandmassKm2 || m.a.GridCells != m.b.GridCells ||
			!near(m.a.CoveredKm2, m.b.CoveredKm2) || !near(m.a.Fraction, m.b.Fraction) {
			return fmt.Errorf("%s %+v against %+v", m.name, m.b, m.a)
		}
	}
	return nil
}

func near(a, b float64) bool {
	return math.Abs(a-b) <= coverageTolerance*math.Max(math.Abs(a), math.Abs(b))
}
