package geo

import (
	"math"
	"sort"
	"sync"
)

// Raster computes what fraction of a landmass polygon is covered by a
// set of coverage shapes (circles and polygons), by sampling the
// landmass on a regular lat/lon grid. This is how Figure 12's
// "% of contiguous US landmass covered" numbers are produced.
//
// CellKm sets the sampling pitch. Coverage features in this study are
// as small as 300 m circles, far below any grid we can afford over the
// whole CONUS, so Raster counts a cell as covered in proportion to the
// shape area when a shape is smaller than a cell (area-weighted
// sub-cell accounting) rather than by center containment alone.
type Raster struct {
	Landmass Polygon
	CellKm   float64
}

// coverShape is one coverage feature: either a circle or a polygon.
type coverShape struct {
	isCircle bool
	center   Point
	radiusKm float64
	poly     Polygon
	bounds   BoundingBox
}

// CoverageSet accumulates coverage features and evaluates the covered
// fraction of a landmass. Features may overlap; overlapping area is
// counted once.
type CoverageSet struct {
	mu     sync.Mutex
	shapes []coverShape
}

// AddCircle adds a disc of radiusKm around center.
func (cs *CoverageSet) AddCircle(center Point, radiusKm float64) {
	if radiusKm <= 0 {
		return
	}
	b := BoundsOf(Circle(center, radiusKm, 8).Vertices)
	cs.mu.Lock()
	cs.shapes = append(cs.shapes, coverShape{isCircle: true, center: center, radiusKm: radiusKm, bounds: b})
	cs.mu.Unlock()
}

// AddPolygon adds a polygonal coverage region. Degenerate polygons
// (fewer than 3 vertices) are ignored.
func (cs *CoverageSet) AddPolygon(p Polygon) {
	if len(p.Vertices) < 3 {
		return
	}
	cs.mu.Lock()
	cs.shapes = append(cs.shapes, coverShape{poly: p, bounds: p.Bounds()})
	cs.mu.Unlock()
}

// Size returns the number of shapes in the set.
func (cs *CoverageSet) Size() int {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return len(cs.shapes)
}

// covers reports whether the shape covers point p.
func (s *coverShape) covers(p Point) bool {
	if !s.bounds.Contains(p) {
		return false
	}
	if s.isCircle {
		return HaversineKm(s.center, p) <= s.radiusKm
	}
	return s.poly.Contains(p)
}

// areaKm2 returns the shape's own area.
func (s *coverShape) areaKm2() float64 {
	if s.isCircle {
		return math.Pi * s.radiusKm * s.radiusKm
	}
	return s.poly.AreaKm2()
}

// Result of a coverage evaluation.
type CoverageResult struct {
	LandmassKm2 float64 // area of the landmass polygon
	CoveredKm2  float64 // covered area within the landmass
	Fraction    float64 // CoveredKm2 / LandmassKm2
	GridCells   int     // number of landmass sample cells evaluated
}

// Evaluate computes the covered fraction of r.Landmass by cs.
//
// Cells whose center lies in the landmass are tested against the shape
// index. A cell counts as fully covered if its center is covered by
// any shape. Shapes much smaller than a cell would otherwise alias to
// zero, so shapes whose bounding box fits entirely inside one cell
// contribute min(shapeArea, cellArea) to a sub-cell total instead,
// deduplicated per cell to avoid double counting dense clusters beyond
// one full cell.
func (r Raster) Evaluate(cs *CoverageSet) CoverageResult {
	land := r.Landmass
	bounds := land.Bounds()
	kmPerDegLat := 2 * math.Pi * EarthRadiusKm / 360
	dLat := r.CellKm / kmPerDegLat
	cellArea := r.CellKm * r.CellKm

	cs.mu.Lock()
	shapes := append([]coverShape(nil), cs.shapes...)
	cs.mu.Unlock()

	// Partition shapes: "large" shapes are tested per cell center;
	// "small" shapes contribute area directly to the cell that holds
	// their center.
	var large []*coverShape
	type subCell struct{ areaSum float64 }
	small := make(map[[2]int]*subCell)
	cellOf := func(p Point, refLat float64) [2]int {
		kmPerDegLon := kmPerDegLat * math.Cos(deg2rad(refLat))
		dLon := r.CellKm / kmPerDegLon
		return [2]int{
			int(math.Floor((p.Lat - bounds.MinLat) / dLat)),
			int(math.Floor((p.Lon - bounds.MinLon) / dLon)),
		}
	}
	for i := range shapes {
		s := &shapes[i]
		spanLat := (s.bounds.MaxLat - s.bounds.MinLat) * kmPerDegLat
		kmPerDegLon := kmPerDegLat * math.Cos(deg2rad((s.bounds.MinLat+s.bounds.MaxLat)/2))
		spanLon := (s.bounds.MaxLon - s.bounds.MinLon) * kmPerDegLon
		if spanLat < r.CellKm && spanLon < r.CellKm {
			c := Point{
				Lat: (s.bounds.MinLat + s.bounds.MaxLat) / 2,
				Lon: (s.bounds.MinLon + s.bounds.MaxLon) / 2,
			}
			if !land.Contains(c) {
				continue
			}
			key := cellOf(c, c.Lat)
			sc := small[key]
			if sc == nil {
				sc = &subCell{}
				small[key] = sc
			}
			sc.areaSum += s.areaKm2()
		} else {
			large = append(large, s)
		}
	}

	// Walk the grid. Parallelize across latitude rows.
	nRows := int(math.Ceil((bounds.MaxLat - bounds.MinLat) / dLat))
	if nRows < 1 {
		nRows = 1
	}
	type rowResult struct {
		landCells    int
		coveredCells int
		coveredKeys  map[[2]int]bool
	}
	results := make([]rowResult, nRows)
	var wg sync.WaitGroup
	workers := 8
	rowCh := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for row := range rowCh {
				lat := bounds.MinLat + (float64(row)+0.5)*dLat
				kmPerDegLon := kmPerDegLat * math.Cos(deg2rad(lat))
				dLon := r.CellKm / kmPerDegLon
				res := rowResult{coveredKeys: make(map[[2]int]bool)}
				for lon := bounds.MinLon + dLon/2; lon <= bounds.MaxLon; lon += dLon {
					p := Point{Lat: lat, Lon: lon}
					if !land.Contains(p) {
						continue
					}
					res.landCells++
					for _, s := range large {
						if s.covers(p) {
							res.coveredCells++
							res.coveredKeys[cellOf(p, lat)] = true
							break
						}
					}
				}
				results[row] = res
			}
		}()
	}
	for row := 0; row < nRows; row++ {
		rowCh <- row
	}
	close(rowCh)
	wg.Wait()

	landCells, coveredCells := 0, 0
	coveredByLarge := make(map[[2]int]bool)
	for _, res := range results {
		landCells += res.landCells
		coveredCells += res.coveredCells
		for k := range res.coveredKeys {
			coveredByLarge[k] = true
		}
	}

	// Add the sub-cell contributions for cells not already covered by
	// a large shape. Cap each cell at one cell-area. Float addition is
	// not associative, so the cells are summed in sorted key order:
	// map order would change the last bits from call to call.
	keys := make([][2]int, 0, len(small))
	for key := range small {
		if !coveredByLarge[key] {
			keys = append(keys, key)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	subArea := 0.0
	for _, key := range keys {
		a := small[key].areaSum
		if a > cellArea {
			a = cellArea
		}
		subArea += a
	}

	landArea := land.AreaKm2()
	covered := float64(coveredCells)*cellArea + subArea
	if covered > landArea {
		covered = landArea
	}
	frac := 0.0
	if landArea > 0 {
		frac = covered / landArea
	}
	return CoverageResult{
		LandmassKm2: landArea,
		CoveredKm2:  covered,
		Fraction:    frac,
		GridCells:   landCells,
	}
}
