package plot

import (
	"strings"
	"testing"

	"peoplesnet/internal/geo"
)

func TestCanvasPlotAndRender(t *testing.T) {
	b := geo.BoundingBox{MinLat: 0, MinLon: 0, MaxLat: 10, MaxLon: 10}
	c := NewCanvas(b, 20, 10)
	c.Plot(geo.Point{Lat: 5, Lon: 5}, '*')
	c.Plot(geo.Point{Lat: 50, Lon: 50}, 'X') // outside: ignored
	s := c.String()
	if !strings.Contains(s, "*") {
		t.Fatal("plotted point missing")
	}
	if strings.Contains(s, "X") {
		t.Fatal("out-of-viewport point rendered")
	}
	lines := strings.Split(s, "\n")
	if len(lines) != 12 { // border + 10 rows + border
		t.Fatalf("rendered %d lines", len(lines))
	}
	for _, l := range lines {
		if len([]rune(l)) != 22 {
			t.Fatalf("ragged line %q", l)
		}
	}
}

func TestNorthIsUp(t *testing.T) {
	b := geo.BoundingBox{MinLat: 0, MinLon: 0, MaxLat: 10, MaxLon: 10}
	c := NewCanvas(b, 10, 10)
	c.Plot(geo.Point{Lat: 9.9, Lon: 5}, 'N')
	c.Plot(geo.Point{Lat: 0.1, Lon: 5}, 'S')
	s := strings.Split(c.String(), "\n")
	nRow, sRow := -1, -1
	for i, l := range s {
		if strings.Contains(l, "N") {
			nRow = i
		}
		if strings.Contains(l, "S") {
			sRow = i
		}
	}
	if nRow < 0 || sRow < 0 || nRow >= sRow {
		t.Fatalf("north row %d, south row %d", nRow, sRow)
	}
}

func TestFitCanvasCoversPoints(t *testing.T) {
	pts := []geo.Point{{Lat: 32.7, Lon: -117.2}, {Lat: 32.8, Lon: -117.1}}
	c := FitCanvas(pts, 40, 20, 0.1)
	for _, p := range pts {
		if _, _, ok := c.cell(p); !ok {
			t.Fatalf("fit canvas excludes %v", p)
		}
	}
	// Degenerate inputs.
	if FitCanvas(nil, 10, 10, 0.1) == nil {
		t.Fatal("nil-point canvas missing")
	}
}

func TestDensityRamp(t *testing.T) {
	b := geo.BoundingBox{MinLat: 0, MinLon: 0, MaxLat: 10, MaxLon: 10}
	d := NewDensity(b, 20, 10)
	for i := 0; i < 50; i++ {
		d.Add(geo.Point{Lat: 5, Lon: 5}) // hot cell
	}
	d.Add(geo.Point{Lat: 2, Lon: 2}) // cool cell
	s := d.String()
	if !strings.Contains(s, "@") {
		t.Fatal("hot cell not at peak intensity")
	}
	if !strings.Contains(s, ".") {
		t.Fatal("cool cell not at low intensity")
	}
}

func TestPlotMajority(t *testing.T) {
	b := geo.BoundingBox{MinLat: 0, MinLon: 0, MaxLat: 10, MaxLon: 10}
	c := NewCanvas(b, 10, 10)
	// Same cell: two 'o', one 'x' → majority 'o'.
	pts := []geo.Point{{Lat: 5, Lon: 5}, {Lat: 5, Lon: 5}, {Lat: 5, Lon: 5}, {Lat: 1, Lon: 1}}
	marks := []rune{'o', 'o', 'x', 'x'}
	c.PlotMajority(pts, marks)
	s := c.String()
	if strings.Count(s, "o") != 1 || strings.Count(s, "x") != 1 {
		t.Fatalf("majority render wrong:\n%s", s)
	}
	// Mismatched lengths: no-op, no panic.
	c.PlotMajority(pts, marks[:2])
}
