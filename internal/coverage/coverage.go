// Package coverage implements §8.2.1's incentive-derived coverage
// models: the explorer's dots-on-a-map view, the HIP15 300 m radius
// model (Fig 12b), witness convex hulls (Fig 12c), hulls with the
// 25 km witness-distance cutoff (Fig 12d), and the final radial +
// RSSI-grown model (Fig 12e) — each evaluated as a percentage of the
// contiguous-US landmass — together with the valid-witness distance
// and RSSI distributions of Figures 13 and 14.
package coverage

import (
	"peoplesnet/internal/chain"
	"peoplesnet/internal/geo"
	"peoplesnet/internal/radio"
	"peoplesnet/internal/stats"
)

// Witness is one witness report with decoded geometry.
type Witness struct {
	Location geo.Point
	RSSIdBm  float64
	Valid    bool
}

// Challenge is one PoC event with decoded geometry: the raw material
// of every witness-based coverage model.
type Challenge struct {
	Challengee geo.Point
	Witnesses  []Witness
}

// FromChain extracts challenges from poc_receipt transactions,
// decoding H3 cells back to coordinates exactly as the paper does
// (§4.1).
func FromChain(c *chain.Chain) []Challenge {
	var out []Challenge
	c.ScanType(chain.TxnPoCReceipt, func(_ int64, t chain.Txn) bool {
		r := t.(*chain.PoCReceipt)
		if !r.ChallengeeLocation.Valid() {
			return true
		}
		ch := Challenge{Challengee: r.ChallengeeLocation.Center()}
		for _, w := range r.Witnesses {
			if !w.Location.Valid() {
				continue
			}
			ch.Witnesses = append(ch.Witnesses, Witness{
				Location: w.Location.Center(),
				RSSIdBm:  w.RSSIdBm,
				Valid:    w.Valid,
			})
		}
		out = append(out, ch)
		return true
	})
	return out
}

// Model identifies one of the paper's coverage models.
type Model int

// The Fig 12 model family.
const (
	ModelRadius300m Model = iota // Fig 12b
	ModelConvexHull              // Fig 12c
	ModelHull25km                // Fig 12d
	ModelRadialRSSI              // Fig 12e
)

func (m Model) String() string {
	switch m {
	case ModelRadius300m:
		return "300m-radius"
	case ModelConvexHull:
		return "convex-hull"
	case ModelHull25km:
		return "hull-25km"
	case ModelRadialRSSI:
		return "radial+rssi"
	default:
		return "unknown-model"
	}
}

// WitnessCutoffKm is the revised hull model's distance prune (§8.2.1:
// "we choose a generous 25 km cutoff").
const WitnessCutoffKm = 25

// Estimator evaluates coverage models against a landmass.
type Estimator struct {
	Landmass geo.Polygon
	// CellKm is the raster resolution; 15–25 km is plenty for
	// CONUS-scale percentages.
	CellKm float64
	// SensitivityDBm feeds the RSSI growth term; the paper uses the
	// ST hardware's −134 dBm.
	SensitivityDBm float64
}

// NewConusEstimator returns the paper's configuration.
func NewConusEstimator() Estimator {
	return Estimator{
		Landmass:       geo.ContiguousUS(),
		CellKm:         20,
		SensitivityDBm: radio.DeviceSensitivityDBm,
	}
}

// Radius300m builds the HIP15 disc model from hotspot locations
// (Fig 12b).
func (e Estimator) Radius300m(hotspots []geo.Point) geo.CoverageResult {
	cs := &geo.CoverageSet{}
	for _, p := range hotspots {
		if p.IsZero() || !p.Valid() {
			continue
		}
		cs.AddCircle(p, 0.3)
	}
	return e.evaluate(cs)
}

// witnessHull is one challenge's hull points (the challengee first,
// then its usable witnesses) and their convex hull.
type witnessHull struct {
	pts  []geo.Point
	hull geo.Polygon
}

// hullFor returns the hull for one challenge under a witness filter;
// the polygon is empty if there are fewer than 3 usable points.
func hullFor(ch Challenge, maxDistKm float64) witnessHull {
	pts := []geo.Point{ch.Challengee}
	for _, w := range ch.Witnesses {
		if !w.Valid {
			continue
		}
		if maxDistKm > 0 && geo.HaversineKm(ch.Challengee, w.Location) > maxDistKm {
			continue
		}
		pts = append(pts, w.Location)
	}
	return witnessHull{pts, geo.ConvexHull(pts)}
}

// witnessHulls builds every challenge's hull under a witness filter.
func witnessHulls(challenges []Challenge, maxDistKm float64) []witnessHull {
	out := make([]witnessHull, len(challenges))
	for i, ch := range challenges {
		out[i] = hullFor(ch, maxDistKm)
	}
	return out
}

// ConvexHulls builds the witness-hull model (Fig 12c), or the 25 km
// pruned variant when cutoffKm > 0 (Fig 12d).
func (e Estimator) ConvexHulls(challenges []Challenge, cutoffKm float64) geo.CoverageResult {
	return e.hullModel(witnessHulls(challenges, cutoffKm))
}

func (e Estimator) hullModel(hulls []witnessHull) geo.CoverageResult {
	cs := &geo.CoverageSet{}
	for _, h := range hulls {
		cs.AddPolygon(h.hull)
	}
	return e.evaluate(cs)
}

// RadialRSSI builds the final model (Fig 12e): pruned hulls, plus a
// disc at every hull-vertex witness with radius equal to its distance
// to the challengee, grown by the free-space RSSI term
// d = 10^((w−s)/20) meters.
func (e Estimator) RadialRSSI(challenges []Challenge) geo.CoverageResult {
	return e.radialModel(challenges, witnessHulls(challenges, WitnessCutoffKm))
}

// radialModel is RadialRSSI over the challenges' 25 km hulls, given in
// challenge order.
func (e Estimator) radialModel(challenges []Challenge, hulls []witnessHull) geo.CoverageResult {
	cs := &geo.CoverageSet{}
	for i, ch := range challenges {
		pts, hull := hulls[i].pts, hulls[i].hull
		cs.AddPolygon(hull)
		// Vertex witnesses: each hull vertex that is a witness (not
		// the challengee) radiates its challenge distance.
		onHull := make(map[geo.Point]bool, len(hull.Vertices))
		for _, v := range hull.Vertices {
			onHull[v] = true
		}
		for _, p := range pts[1:] { // skip challengee
			if len(hull.Vertices) >= 3 && !onHull[p] {
				continue // interior witnesses covered by the hull
			}
			radiusKm := geo.HaversineKm(p, ch.Challengee)
			// Find the witness's RSSI for the growth term.
			growM := 0.0
			for _, w := range ch.Witnesses {
				if w.Location == p && w.Valid {
					growM = radio.FSPLRangeM(w.RSSIdBm, e.SensitivityDBm)
					break
				}
			}
			total := radiusKm + growM/1000
			if total > 0 {
				cs.AddCircle(p, total)
			}
		}
	}
	return e.evaluate(cs)
}

func (e Estimator) evaluate(cs *geo.CoverageSet) geo.CoverageResult {
	return geo.Raster{Landmass: e.Landmass, CellKm: e.CellKm}.Evaluate(cs)
}

// WitnessDistanceCDF builds Fig 13: the distribution of distances
// between challengees and their purportedly valid witnesses.
func WitnessDistanceCDF(challenges []Challenge) *stats.CDF {
	cdf := &stats.CDF{}
	for _, ch := range challenges {
		for _, w := range ch.Witnesses {
			if w.Valid {
				cdf.Add(geo.HaversineKm(ch.Challengee, w.Location))
			}
		}
	}
	return cdf
}

// WitnessRSSICDF builds Fig 14: the distribution of RSSIs reported by
// valid witnesses.
func WitnessRSSICDF(challenges []Challenge) *stats.CDF {
	cdf := &stats.CDF{}
	for _, ch := range challenges {
		for _, w := range ch.Witnesses {
			if w.Valid {
				cdf.Add(w.RSSIdBm)
			}
		}
	}
	return cdf
}

// Summary bundles the whole Fig 12 family for reporting.
type Summary struct {
	Hotspots      int
	Challenges    int
	Radius300m    geo.CoverageResult
	ConvexHull    geo.CoverageResult
	Hull25km      geo.CoverageResult
	RadialRSSI    geo.CoverageResult
	WitnessDistKm *stats.CDF
	WitnessRSSI   *stats.CDF
}

// HullPolygons returns the per-challenge hull polygons (with the
// cutoff applied), for map rendering — the explorer serves them as
// GeoJSON.
func HullPolygons(challenges []Challenge, cutoffKm float64) []geo.Polygon {
	var out []geo.Polygon
	for _, ch := range challenges {
		if h := hullFor(ch, cutoffKm); len(h.hull.Vertices) >= 3 {
			out = append(out, h.hull)
		}
	}
	return out
}

// Evaluate runs every model. The 25 km hulls are built once and
// shared by the pruned-hull and radial models.
func (e Estimator) Evaluate(hotspots []geo.Point, challenges []Challenge) Summary {
	pruned := witnessHulls(challenges, WitnessCutoffKm)
	return Summary{
		Hotspots:      len(hotspots),
		Challenges:    len(challenges),
		Radius300m:    e.Radius300m(hotspots),
		ConvexHull:    e.ConvexHulls(challenges, 0),
		Hull25km:      e.hullModel(pruned),
		RadialRSSI:    e.radialModel(challenges, pruned),
		WitnessDistKm: WitnessDistanceCDF(challenges),
		WitnessRSSI:   WitnessRSSICDF(challenges),
	}
}
