// Package peoplesnet is the public face of a full reproduction of
// "Federated Infrastructure: Usage, Patterns, and Insights from 'The
// People's Network'" (IMC 2021) — the first broad measurement study of
// the Helium LPWAN.
//
// The library has three layers:
//
//   - A synthetic Helium world generator (the substitute for the live
//     network the paper measured): blockchain, hotspots, owners, p2p
//     swarm, ISPs, Proof-of-Coverage with cheats, and data traffic.
//   - The measurement engine: one analyzer per paper section, turning
//     a chain's transactions + peerbook + IP metadata into every table
//     and figure.
//   - Empirical field experiments: the §8 PRR, walk, and ACK-validity
//     tests run against real protocol components in virtual time.
//
// Quick start:
//
//	world, _ := peoplesnet.Simulate(peoplesnet.SmallWorld(42))
//	study := peoplesnet.Measure(world)
//	fmt.Println(study.RenderText())
package peoplesnet

import (
	"peoplesnet/internal/core"
	"peoplesnet/internal/coverage"
	"peoplesnet/internal/etl"
	"peoplesnet/internal/fieldtest"
	"peoplesnet/internal/geo"
	"peoplesnet/internal/live"
	"peoplesnet/internal/simnet"
	"peoplesnet/internal/stats"
)

// WorldConfig parameterizes the world generator. It is simnet.Config;
// construct one with PaperWorld or SmallWorld and adjust fields as
// needed.
type WorldConfig = simnet.Config

// World is a generated network: chain, hotspot fleet, peerbook.
type World = simnet.Result

// PaperWorld returns the full-scale configuration: ~44,000 hotspots
// over the paper's July 2019 – May 2021 window. Generation takes a few
// seconds and a few hundred MB.
func PaperWorld(seed uint64) WorldConfig { return simnet.DefaultConfig(seed) }

// SmallWorld returns a ~1/20-scale configuration with the same
// distributional shapes; it generates in well under a second.
func SmallWorld(seed uint64) WorldConfig { return simnet.TestConfig(seed) }

// Simulate generates a world.
func Simulate(cfg WorldConfig) (*World, error) { return simnet.Generate(cfg) }

// Study is the full measurement suite over one world.
type Study struct {
	Dataset *core.Dataset
	World   *World

	Summary   core.ChainSummary
	Moves     core.MoveAnalysis
	Growth    core.GrowthAnalysis
	Ownership core.OwnershipAnalysis
	Resale    core.ResaleAnalysis
	Traffic   core.TrafficAnalysis
	Routers   core.RouterAnalysis
	ISPs      core.ISPAnalysis
	Relays    core.RelayAnalysis
	Audit     core.IncentiveAudit
}

// MeasureOptions carries the analysis cutoffs shared by the batch and
// live paths (top-trader and top-ISP list sizes, PoC weight
// override). The zero value means "paper defaults".
type MeasureOptions = core.MeasureOptions

// DefaultMeasureOptions returns the paper's cutoffs.
func DefaultMeasureOptions() MeasureOptions { return core.DefaultMeasureOptions() }

// Measure runs every chain/p2p/IP analysis of §3–§7 over the world.
// The chain is first loaded into an internal ETL store (the stand-in
// for the DeWi ETL service the paper queried), so the analyses resolve
// through its indexes and materialized aggregates rather than raw
// block scans.
func Measure(w *World) *Study { return MeasureStore(etl.FromChain(w.Chain), w) }

// MeasureStore runs the suite over an already-open ETL store without
// re-indexing anything: the analyses resolve through the store's
// posting lists and aggregates and read no ledger, so a store reopened
// with no chain attached measures the same. world may be nil — a bare
// store has no p2p swarm or IP metadata, so the §6 analyses come back
// empty; everything chain-derived is complete.
func MeasureStore(s *etl.Store, w *World) *Study {
	return MeasureStoreWith(s, w, DefaultMeasureOptions())
}

// MeasureStoreWith is MeasureStore with explicit analysis cutoffs.
// Opts.PoCWeight supplies the sampling weight a nil world cannot.
func MeasureStoreWith(s *etl.Store, w *World, opts MeasureOptions) *Study {
	opts = opts.Normalized()
	var d *core.Dataset
	if w != nil {
		d = core.FromSimulation(w)
	} else {
		d = &core.Dataset{}
	}
	d.Chain = s.View()
	if opts.PoCWeight > 0 {
		d.PoCWeight = opts.PoCWeight
	}
	st := &Study{
		Dataset:   d,
		World:     w,
		Summary:   d.SummarizeChain(),
		Moves:     d.AnalyzeMoves(),
		Growth:    d.AnalyzeGrowth(),
		Ownership: d.AnalyzeOwnership(),
		Resale:    d.AnalyzeResale(opts.ResaleTopN),
		Traffic:   d.AnalyzeTraffic(),
		Routers:   d.AnalyzeRouters(),
		ISPs:      d.AnalyzeISPs(opts.ISPTopN),
		Audit:     d.AuditIncentives(1, 100),
	}
	if w != nil {
		// The relay analyses need the world's p2p swarm and seed.
		st.Relays = d.AnalyzeRelays(5, stats.NewRNG(w.Cfg.Seed^0x4e1a))
	}
	return st
}

// LiveStudy re-exports internal/live's incremental study: the §3–§6
// analyses maintained as materialized views over a store's block
// tail, with per-update cost proportional to the new transactions.
type LiveStudy = live.Study

// LiveSnapshot is one consistent materialization of a LiveStudy.
type LiveSnapshot = live.Snapshot

// Live attaches an incremental study to an open store. It folds every
// stored block, then keeps up with ingest; stop it with Close. world
// may be nil for a bare store (the ownership analysis then has no
// city metadata). Opts is shared with the batch path, so dashboards
// and reports agree on every cutoff.
func Live(s *etl.Store, w *World, opts MeasureOptions) *LiveStudy {
	lo := live.Options{Measure: opts}
	if w != nil {
		d := core.FromSimulation(w)
		lo.Meta = d.Meta
		lo.PoCWeight = d.PoCWeight
	}
	return live.Attach(s, lo)
}

// CoverageStudy evaluates the §8.2 coverage model family over a
// world's final hotspot fleet and PoC receipts.
func CoverageStudy(w *World) coverage.Summary {
	est := coverage.NewConusEstimator()
	var hotspots []geo.Point
	for _, h := range w.World.Hotspots {
		if h.Online && !h.Asserted.IsZero() && geo.InConus(h.Asserted) {
			hotspots = append(hotspots, h.Asserted)
		}
	}
	challenges := coverage.FromChain(w.Chain)
	// Restrict challenges to CONUS, as the paper does.
	var conus []coverage.Challenge
	for _, ch := range challenges {
		if geo.InConus(ch.Challengee) {
			conus = append(conus, ch)
		}
	}
	return est.Evaluate(hotspots, conus)
}

// FieldConfig re-exports the §8 experiment configuration.
type FieldConfig = fieldtest.Config

// FieldResult re-exports the §8 experiment result.
type FieldResult = fieldtest.Result

// Field experiment scenario constructors (§8.1, §8.2.2).
var (
	BestCaseExperiment     = fieldtest.BestCase
	ResidentialExperiment  = fieldtest.Residential
	UrbanWalkExperiment    = fieldtest.UrbanWalk
	SuburbanWalkExperiment = fieldtest.SuburbanWalk
)

// RunField executes a field experiment.
func RunField(cfg FieldConfig) (*FieldResult, error) { return fieldtest.Run(cfg) }
