package geo

import (
	"math"
	"testing"
)

func TestRasterFullCoverage(t *testing.T) {
	land := equatorSquare() // ~111x111 km
	cs := &CoverageSet{}
	cs.AddCircle(Point{0.5, 0.5}, 200) // covers everything
	res := Raster{Landmass: land, CellKm: 5}.Evaluate(cs)
	if res.Fraction < 0.95 || res.Fraction > 1.0 {
		t.Fatalf("full coverage fraction = %v", res.Fraction)
	}
	if res.GridCells == 0 {
		t.Fatal("no grid cells evaluated")
	}
}

func TestRasterNoCoverage(t *testing.T) {
	land := equatorSquare()
	cs := &CoverageSet{}
	res := Raster{Landmass: land, CellKm: 5}.Evaluate(cs)
	if res.Fraction != 0 {
		t.Fatalf("empty coverage fraction = %v", res.Fraction)
	}
}

func TestRasterHalfCoverage(t *testing.T) {
	land := equatorSquare()
	cs := &CoverageSet{}
	// Cover the southern half with a polygon.
	cs.AddPolygon(NewPolygon([]Point{{0, 0}, {0, 1}, {0.5, 1}, {0.5, 0}}))
	res := Raster{Landmass: land, CellKm: 2}.Evaluate(cs)
	if math.Abs(res.Fraction-0.5) > 0.03 {
		t.Fatalf("half coverage fraction = %v", res.Fraction)
	}
}

func TestRasterSubCellShapes(t *testing.T) {
	// 300 m circles in a 111x111 km landmass with a 5 km grid: the
	// center-containment test would see nothing, but the sub-cell
	// accounting must register the area.
	land := equatorSquare()
	cs := &CoverageSet{}
	for i := 0; i < 10; i++ {
		cs.AddCircle(Point{0.1 + float64(i)*0.08, 0.5}, 0.3)
	}
	res := Raster{Landmass: land, CellKm: 5}.Evaluate(cs)
	wantArea := 10 * math.Pi * 0.3 * 0.3
	if res.CoveredKm2 < wantArea*0.8 || res.CoveredKm2 > wantArea*1.2 {
		t.Fatalf("sub-cell covered area = %v km², want ~%v", res.CoveredKm2, wantArea)
	}
}

// TestRasterSubCellSumRepeatable: many small shapes in distinct cells
// give many sub-cell terms of different sizes; their sum must not
// depend on map iteration order, so repeated calls agree to the bit.
func TestRasterSubCellSumRepeatable(t *testing.T) {
	land := equatorSquare()
	cs := &CoverageSet{}
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			r := 0.1 + float64((i*20+j)*37%100)/250
			cs.AddCircle(Point{0.025 + float64(i)*0.048, 0.025 + float64(j)*0.048}, r)
		}
	}
	rs := Raster{Landmass: land, CellKm: 5}
	first := rs.Evaluate(cs).CoveredKm2
	for k := 0; k < 20; k++ {
		if got := rs.Evaluate(cs).CoveredKm2; math.Float64bits(got) != math.Float64bits(first) {
			t.Fatalf("call %d: covered %v km², first call %v km²", k+1, got, first)
		}
	}
}

func TestRasterOverlapNotDoubleCounted(t *testing.T) {
	land := equatorSquare()
	cs := &CoverageSet{}
	// Two identical large circles: fraction must match one circle.
	cs.AddCircle(Point{0.5, 0.5}, 20)
	cs.AddCircle(Point{0.5, 0.5}, 20)
	res2 := Raster{Landmass: land, CellKm: 2}.Evaluate(cs)

	one := &CoverageSet{}
	one.AddCircle(Point{0.5, 0.5}, 20)
	res1 := Raster{Landmass: land, CellKm: 2}.Evaluate(one)

	if math.Abs(res1.Fraction-res2.Fraction) > 0.001 {
		t.Fatalf("duplicated circle changed fraction: %v vs %v", res1.Fraction, res2.Fraction)
	}
}

func TestRasterIgnoresShapesOutsideLandmass(t *testing.T) {
	land := equatorSquare()
	cs := &CoverageSet{}
	cs.AddCircle(Point{40, 40}, 50) // far away
	res := Raster{Landmass: land, CellKm: 5}.Evaluate(cs)
	if res.Fraction != 0 {
		t.Fatalf("outside shape contributed coverage: %v", res.Fraction)
	}
}

func TestCoverageSetIgnoresDegenerate(t *testing.T) {
	cs := &CoverageSet{}
	cs.AddCircle(Point{0, 0}, 0)
	cs.AddCircle(Point{0, 0}, -1)
	cs.AddPolygon(Polygon{})
	cs.AddPolygon(NewPolygon([]Point{{0, 0}, {1, 1}}))
	if cs.Size() != 0 {
		t.Fatalf("degenerate shapes were added: %d", cs.Size())
	}
}
