package h3lite

import (
	"math"
	"testing"

	"peoplesnet/internal/geo"
	"peoplesnet/internal/stats"
)

func TestEdgeLengths(t *testing.T) {
	// Paper §4.1: res-12 hexes have an average edge length of 9.4 m.
	e12 := EdgeKm(12) * 1000
	if math.Abs(e12-9.4157) > 0.01 {
		t.Fatalf("res-12 edge = %v m, want ~9.4157", e12)
	}
	if EdgeKm(0) != res0EdgeKm {
		t.Fatal("res-0 edge wrong")
	}
	// Each resolution shrinks the edge by sqrt(7).
	for r := 1; r <= MaxRes; r++ {
		ratio := EdgeKm(r-1) / EdgeKm(r)
		if math.Abs(ratio-math.Sqrt(7)) > 1e-9 {
			t.Fatalf("edge ratio at res %d = %v", r, ratio)
		}
	}
}

func TestRoundTripCenterStable(t *testing.T) {
	// Encoding a cell's center must return the same cell.
	r := stats.NewRNG(1)
	for i := 0; i < 2000; i++ {
		p := geo.Point{Lat: r.Float64()*140 - 70, Lon: r.Float64()*360 - 180}
		for _, res := range []int{5, 9, 12} {
			c := FromLatLon(p, res)
			c2 := FromLatLon(c.Center(), res)
			if c != c2 {
				t.Fatalf("center round trip failed at res %d for %v: %v vs %v", res, p, c, c2)
			}
		}
	}
}

func TestEncodingDistanceBound(t *testing.T) {
	// A point is never farther than one edge length from its cell's
	// center (projected distortion adds cos(lat) slack in longitude,
	// so allow a generous multiplier).
	r := stats.NewRNG(2)
	for i := 0; i < 2000; i++ {
		p := geo.Point{Lat: r.Float64()*120 - 60, Lon: r.Float64()*360 - 180}
		c := FromLatLon(p, 12)
		d := geo.HaversineKm(p, c.Center())
		if d > EdgeKm(12)*1.5 {
			t.Fatalf("point %v is %v km from cell center (edge %v km)", p, d, EdgeKm(12))
		}
	}
}

func TestCellValidity(t *testing.T) {
	c := FromLatLon(geo.Point{Lat: 32.7, Lon: -117.1}, 12)
	if !c.Valid() {
		t.Fatal("cell should be valid")
	}
	if InvalidCell.Valid() {
		t.Fatal("InvalidCell should be invalid")
	}
	if c.Res() != 12 {
		t.Fatalf("Res = %d", c.Res())
	}
}

func TestPentagonDistortionIsRare(t *testing.T) {
	r := stats.NewRNG(5)
	distorted := 0
	n := 5000
	for i := 0; i < n; i++ {
		p := geo.Point{Lat: r.Float64()*140 - 70, Lon: r.Float64()*360 - 180}
		if FromLatLon(p, 12).PentagonDistorted() {
			distorted++
		}
	}
	if distorted > n/100 {
		t.Fatalf("pentagon distortion too common: %d/%d", distorted, n)
	}
	// But cells at an anchor are distorted.
	anchor := FromLatLon(geo.Point{Lat: 26.57, Lon: 72}, 12)
	if !anchor.PentagonDistorted() {
		t.Fatal("cell at icosahedron anchor should be distorted")
	}
}

func TestResolutionPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { EdgeKm(-1) },
		func() { EdgeKm(16) },
		func() { FromLatLon(geo.Point{}, 20) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestNearbyPointsSameCell(t *testing.T) {
	// Points within a meter of each other land in the same res-9 cell
	// essentially always (res-9 edge ~174 m).
	p := geo.Point{Lat: 32.71570, Lon: -117.16110}
	q := geo.Point{Lat: 32.71571, Lon: -117.16111}
	if FromLatLon(p, 9) != FromLatLon(q, 9) {
		t.Fatal("1 m apart points landed in different res-9 cells")
	}
}

func TestDistantPointsDifferentCells(t *testing.T) {
	p := geo.Point{Lat: 32.7157, Lon: -117.1611}
	q := geo.Point{Lat: 32.7257, Lon: -117.1611} // ~1.1 km north
	if FromLatLon(p, 12) == FromLatLon(q, 12) {
		t.Fatal("1 km apart points landed in same res-12 cell")
	}
}
