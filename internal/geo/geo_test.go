package geo

import (
	"math"
	"testing"
	"testing/quick"

	"peoplesnet/internal/stats"
)

// Known city coordinates for distance sanity checks.
var (
	sanDiego = Point{32.7157, -117.1611}
	chicago  = Point{41.8781, -87.6298}
	london   = Point{51.5074, -0.1278}
	sydney   = Point{-33.8688, 151.2093}
)

func TestHaversineKnownDistances(t *testing.T) {
	cases := []struct {
		a, b     Point
		wantKm   float64
		tolerate float64
	}{
		{sanDiego, chicago, 2785, 30},
		{sanDiego, london, 8779, 60},
		{london, sydney, 16994, 100},
		{sanDiego, sanDiego, 0, 0.001},
	}
	for _, c := range cases {
		got := HaversineKm(c.a, c.b)
		if math.Abs(got-c.wantKm) > c.tolerate {
			t.Errorf("Haversine(%v, %v) = %.1f km, want %.0f±%.0f", c.a, c.b, got, c.wantKm, c.tolerate)
		}
	}
}

func TestHaversineSymmetry(t *testing.T) {
	err := quick.Check(func(lat1, lon1, lat2, lon2 float64) bool {
		a := Point{math.Mod(lat1, 90), math.Mod(lon1, 180)}
		b := Point{math.Mod(lat2, 90), math.Mod(lon2, 180)}
		d1, d2 := HaversineKm(a, b), HaversineKm(b, a)
		return math.Abs(d1-d2) < 1e-9
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestHaversineTriangleInequality(t *testing.T) {
	r := stats.NewRNG(1)
	for i := 0; i < 500; i++ {
		a := Point{r.Float64()*170 - 85, r.Float64()*360 - 180}
		b := Point{r.Float64()*170 - 85, r.Float64()*360 - 180}
		c := Point{r.Float64()*170 - 85, r.Float64()*360 - 180}
		if HaversineKm(a, c) > HaversineKm(a, b)+HaversineKm(b, c)+1e-6 {
			t.Fatalf("triangle inequality violated for %v %v %v", a, b, c)
		}
	}
}

func TestDestinationRoundTrip(t *testing.T) {
	r := stats.NewRNG(2)
	for i := 0; i < 500; i++ {
		start := Point{r.Float64()*120 - 60, r.Float64()*360 - 180}
		bearing := r.Float64() * 360
		dist := r.Float64() * 1000
		end := Destination(start, bearing, dist)
		got := HaversineKm(start, end)
		if math.Abs(got-dist) > dist*0.001+0.001 {
			t.Fatalf("Destination distance = %v, want %v (start=%v bearing=%v)", got, dist, start, bearing)
		}
	}
}

func TestDestinationNorth(t *testing.T) {
	p := Destination(Point{0, 0}, 0, 111.195)
	if math.Abs(p.Lat-1) > 0.01 || math.Abs(p.Lon) > 0.01 {
		t.Fatalf("1 degree north = %v", p)
	}
}

func TestInitialBearingCardinal(t *testing.T) {
	if b := InitialBearing(Point{0, 0}, Point{1, 0}); math.Abs(b) > 0.01 {
		t.Errorf("north bearing = %v", b)
	}
	if b := InitialBearing(Point{0, 0}, Point{0, 1}); math.Abs(b-90) > 0.01 {
		t.Errorf("east bearing = %v", b)
	}
	if b := InitialBearing(Point{0, 0}, Point{-1, 0}); math.Abs(b-180) > 0.01 {
		t.Errorf("south bearing = %v", b)
	}
	if b := InitialBearing(Point{0, 0}, Point{0, -1}); math.Abs(b-270) > 0.01 {
		t.Errorf("west bearing = %v", b)
	}
}

func TestPointValidity(t *testing.T) {
	if !(Point{45, 45}).Valid() {
		t.Error("valid point rejected")
	}
	if (Point{91, 0}).Valid() || (Point{0, 181}).Valid() {
		t.Error("invalid point accepted")
	}
	if !(Point{}).IsZero() {
		t.Error("zero point not detected")
	}
	if (Point{0.1, 0}).IsZero() {
		t.Error("non-zero point detected as zero")
	}
}

func TestBoundingBox(t *testing.T) {
	b := BoundsOf([]Point{{1, 2}, {-3, 7}, {5, -1}})
	if b.MinLat != -3 || b.MaxLat != 5 || b.MinLon != -1 || b.MaxLon != 7 {
		t.Fatalf("bounds = %+v", b)
	}
	if !b.Contains(Point{0, 0}) {
		t.Error("box should contain origin")
	}
	if b.Contains(Point{10, 0}) {
		t.Error("box should not contain (10,0)")
	}
}

func TestBoundsOfEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("BoundsOf(nil) did not panic")
		}
	}()
	BoundsOf(nil)
}
