package geo

import (
	"math"
	"testing"

	"peoplesnet/internal/stats"
)

// A ~1 degree square near the equator is about 111.2 x 111.2 km.
func equatorSquare() Polygon {
	return NewPolygon([]Point{{0, 0}, {0, 1}, {1, 1}, {1, 0}})
}

func TestPolygonArea(t *testing.T) {
	sq := equatorSquare()
	got := sq.AreaKm2()
	want := 111.195 * 111.195
	if math.Abs(got-want)/want > 0.01 {
		t.Fatalf("square area = %v, want ~%v", got, want)
	}
}

func TestPolygonAreaDegenerate(t *testing.T) {
	if (Polygon{}).AreaKm2() != 0 {
		t.Error("empty polygon area != 0")
	}
	line := NewPolygon([]Point{{0, 0}, {1, 1}})
	if line.AreaKm2() != 0 {
		t.Error("2-vertex polygon area != 0")
	}
}

func TestPolygonContains(t *testing.T) {
	sq := equatorSquare()
	if !sq.Contains(Point{0.5, 0.5}) {
		t.Error("center not contained")
	}
	if sq.Contains(Point{1.5, 0.5}) || sq.Contains(Point{0.5, -0.5}) {
		t.Error("outside point contained")
	}
}

func TestPolygonContainsConcave(t *testing.T) {
	// An L-shape: the notch at (0.75, 0.75) must be outside.
	l := NewPolygon([]Point{{0, 0}, {0, 1}, {0.5, 1}, {0.5, 0.5}, {1, 0.5}, {1, 0}})
	if !l.Contains(Point{0.25, 0.25}) {
		t.Error("inside of L not contained")
	}
	if l.Contains(Point{0.75, 0.75}) {
		t.Error("notch of L contained")
	}
}

func TestCircleApproximation(t *testing.T) {
	c := Circle(Point{33, -117}, 10, 64)
	got := c.AreaKm2()
	want := math.Pi * 100
	if math.Abs(got-want)/want > 0.02 {
		t.Fatalf("circle area = %v, want ~%v", got, want)
	}
	// All vertices equidistant from center.
	for _, v := range c.Vertices {
		d := HaversineKm(Point{33, -117}, v)
		if math.Abs(d-10) > 0.05 {
			t.Fatalf("vertex distance = %v", d)
		}
	}
}

func TestConvexHullSquare(t *testing.T) {
	pts := []Point{{0, 0}, {0, 1}, {1, 1}, {1, 0}, {0.5, 0.5}, {0.2, 0.7}}
	hull := ConvexHull(pts)
	if len(hull.Vertices) != 4 {
		t.Fatalf("hull has %d vertices, want 4: %v", len(hull.Vertices), hull.Vertices)
	}
	want := 111.195 * 111.195
	if got := hull.AreaKm2(); math.Abs(got-want)/want > 0.01 {
		t.Fatalf("hull area = %v", got)
	}
}

func TestConvexHullDegenerate(t *testing.T) {
	if h := ConvexHull(nil); len(h.Vertices) != 0 {
		t.Error("hull of nothing should be empty")
	}
	if h := ConvexHull([]Point{{1, 1}}); len(h.Vertices) != 1 {
		t.Error("hull of one point should have one vertex")
	}
	if h := ConvexHull([]Point{{1, 1}, {1, 1}, {1, 1}}); len(h.Vertices) != 1 {
		t.Error("hull of duplicates should dedupe")
	}
	two := ConvexHull([]Point{{0, 0}, {1, 1}})
	if len(two.Vertices) != 2 || two.AreaKm2() != 0 {
		t.Error("hull of two points should be a zero-area segment")
	}
	collinear := ConvexHull([]Point{{0, 0}, {0.5, 0.5}, {1, 1}})
	if collinear.AreaKm2() > 1e-6 {
		t.Errorf("collinear hull area = %v", collinear.AreaKm2())
	}
}

// Property: every input point is inside or on the hull (with epsilon
// expansion via containment of slightly-shrunk points toward the
// centroid).
func TestConvexHullContainsInputs(t *testing.T) {
	r := stats.NewRNG(7)
	for trial := 0; trial < 50; trial++ {
		n := 3 + r.Intn(30)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{30 + r.Float64(), -117 + r.Float64()}
		}
		hull := ConvexHull(pts)
		if len(hull.Vertices) < 3 {
			continue
		}
		// Centroid of hull.
		var cx, cy float64
		for _, v := range hull.Vertices {
			cx += v.Lon
			cy += v.Lat
		}
		cx /= float64(len(hull.Vertices))
		cy /= float64(len(hull.Vertices))
		for _, p := range pts {
			shrunk := Point{
				Lat: p.Lat + (cy-p.Lat)*1e-9,
				Lon: p.Lon + (cx-p.Lon)*1e-9,
			}
			if !hull.Contains(shrunk) {
				t.Fatalf("trial %d: point %v escapes hull %v", trial, p, hull.Vertices)
			}
		}
	}
}

// Property: hull area >= area of any triangle of input points.
func TestConvexHullAreaDominates(t *testing.T) {
	r := stats.NewRNG(8)
	for trial := 0; trial < 30; trial++ {
		pts := make([]Point, 10)
		for i := range pts {
			pts[i] = Point{40 + r.Float64()*0.5, -100 + r.Float64()*0.5}
		}
		hull := ConvexHull(pts)
		ha := hull.AreaKm2()
		tri := NewPolygon([]Point{pts[0], pts[1], pts[2]})
		if tri.AreaKm2() > ha+1e-6 {
			t.Fatalf("triangle area %v exceeds hull area %v", tri.AreaKm2(), ha)
		}
	}
}

func TestConusPolygon(t *testing.T) {
	conus := ContiguousUS()
	area := conus.AreaKm2()
	if area < 7.2e6 || area > 9.2e6 {
		t.Fatalf("CONUS area = %.3g km², want within ~12%% of %.3g", area, ConusAreaKm2)
	}
	inside := []Point{
		{39.7392, -104.9903}, // Denver
		{41.8781, -87.6298},  // Chicago
		{32.7157, -117.1611}, // San Diego (coastal; simplified polygon must include it)
		{40.7128, -74.0060},  // New York
	}
	for _, p := range inside {
		if !conus.Contains(p) {
			t.Errorf("CONUS should contain %v", p)
		}
	}
	outside := []Point{
		{51.5074, -0.1278},   // London
		{19.4326, -99.1332},  // Mexico City
		{61.2181, -149.9003}, // Anchorage
		{21.3069, -157.8583}, // Honolulu
		{45.4215, -75.6972},  // Ottawa
	}
	for _, p := range outside {
		if conus.Contains(p) {
			t.Errorf("CONUS should not contain %v", p)
		}
	}
}

// TestInConusAgreesWithPolygon: InConus, which tests against a polygon
// built once, answers as a freshly built ContiguousUS() does on a
// lat/lon grid over the CONUS bounds and a margin around them.
func TestInConusAgreesWithPolygon(t *testing.T) {
	fresh := ContiguousUS()
	b := fresh.Bounds()
	inside := 0
	for lat := b.MinLat - 1; lat <= b.MaxLat+1; lat += 0.25 {
		for lon := b.MinLon - 1; lon <= b.MaxLon+1; lon += 0.25 {
			p := Point{Lat: lat, Lon: lon}
			got, want := InConus(p), fresh.Contains(p)
			if got != want {
				t.Fatalf("InConus(%v) = %v, ContiguousUS().Contains = %v", p, got, want)
			}
			if got {
				inside++
			}
		}
	}
	if inside == 0 {
		t.Fatal("no grid point inside CONUS")
	}
}

// TestInConusAllocsNothing: InConus builds no polygon per call.
func TestInConusAllocsNothing(t *testing.T) {
	p := Point{Lat: 39.7392, Lon: -104.9903}
	if n := testing.AllocsPerRun(100, func() { InConus(p) }); n != 0 {
		t.Fatalf("InConus allocates %v times per call, want 0", n)
	}
}

// TestContiguousUSFreshCopy: each ContiguousUS call returns its own
// vertices, so a caller editing one cannot move InConus's border.
func TestContiguousUSFreshCopy(t *testing.T) {
	denver := Point{Lat: 39.7392, Lon: -104.9903}
	a := ContiguousUS()
	for i := range a.Vertices {
		a.Vertices[i] = Point{}
	}
	if b := ContiguousUS(); !b.Contains(denver) {
		t.Fatal("editing one ContiguousUS result changed the next one")
	}
	if !InConus(denver) {
		t.Fatal("editing a ContiguousUS result changed InConus")
	}
}
