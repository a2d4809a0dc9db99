// Package geo implements the spherical geometry needed by the study:
// great-circle distances between hotspots, destination points for walk
// traces, convex hulls around PoC witnesses, polygon areas and
// point-in-polygon tests for landmass coverage, and a rasterizer that
// turns a set of coverage shapes into a "% of contiguous US covered"
// number (Figure 12).
//
// Coordinates are WGS84-style latitude/longitude in degrees on a
// spherical Earth of radius 6371.0088 km (the IUGG mean radius). The
// paper's analyses operate at hundreds of meters and above, where the
// spherical approximation error (<0.5%) is irrelevant.
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusKm is the IUGG mean Earth radius.
const EarthRadiusKm = 6371.0088

// Point is a geographic coordinate in degrees.
type Point struct {
	Lat float64 `json:"lat"`
	Lon float64 `json:"lon"`
}

// IsZero reports whether p is the (0,0) "null island" coordinate that
// hotspots assert when they have no GPS fix (§4.1).
func (p Point) IsZero() bool { return p.Lat == 0 && p.Lon == 0 }

// Valid reports whether p is a plausible coordinate.
func (p Point) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180
}

func (p Point) String() string {
	return fmt.Sprintf("(%.5f, %.5f)", p.Lat, p.Lon)
}

func deg2rad(d float64) float64 { return d * math.Pi / 180 }
func rad2deg(r float64) float64 { return r * 180 / math.Pi }

// HaversineKm returns the great-circle distance between a and b in
// kilometers.
func HaversineKm(a, b Point) float64 {
	lat1, lon1 := deg2rad(a.Lat), deg2rad(a.Lon)
	lat2, lon2 := deg2rad(b.Lat), deg2rad(b.Lon)
	dLat := lat2 - lat1
	dLon := lon2 - lon1
	h := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1)*math.Cos(lat2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusKm * math.Asin(math.Sqrt(h))
}

// HaversineM returns the great-circle distance in meters.
func HaversineM(a, b Point) float64 { return HaversineKm(a, b) * 1000 }

// InitialBearing returns the initial great-circle bearing from a to b
// in degrees clockwise from north, in [0, 360).
func InitialBearing(a, b Point) float64 {
	lat1, lon1 := deg2rad(a.Lat), deg2rad(a.Lon)
	lat2, lon2 := deg2rad(b.Lat), deg2rad(b.Lon)
	dLon := lon2 - lon1
	y := math.Sin(dLon) * math.Cos(lat2)
	x := math.Cos(lat1)*math.Sin(lat2) - math.Sin(lat1)*math.Cos(lat2)*math.Cos(dLon)
	brng := rad2deg(math.Atan2(y, x))
	return math.Mod(brng+360, 360)
}

// Destination returns the point reached by travelling distKm along the
// great circle from p at the given initial bearing (degrees from
// north).
func Destination(p Point, bearingDeg, distKm float64) Point {
	lat1, lon1 := deg2rad(p.Lat), deg2rad(p.Lon)
	brng := deg2rad(bearingDeg)
	d := distKm / EarthRadiusKm
	lat2 := math.Asin(math.Sin(lat1)*math.Cos(d) + math.Cos(lat1)*math.Sin(d)*math.Cos(brng))
	lon2 := lon1 + math.Atan2(math.Sin(brng)*math.Sin(d)*math.Cos(lat1),
		math.Cos(d)-math.Sin(lat1)*math.Sin(lat2))
	lon2 = math.Mod(lon2+3*math.Pi, 2*math.Pi) - math.Pi
	return Point{Lat: rad2deg(lat2), Lon: rad2deg(lon2)}
}

// BoundingBox is an axis-aligned lat/lon rectangle. It does not handle
// antimeridian crossing; the study's regions (CONUS, metro areas) do
// not cross it.
type BoundingBox struct {
	MinLat, MinLon, MaxLat, MaxLon float64
}

// Contains reports whether p lies inside the box (inclusive).
func (b BoundingBox) Contains(p Point) bool {
	return p.Lat >= b.MinLat && p.Lat <= b.MaxLat &&
		p.Lon >= b.MinLon && p.Lon <= b.MaxLon
}

// Expand grows the box to include p.
func (b *BoundingBox) Expand(p Point) {
	if b.MinLat == 0 && b.MaxLat == 0 && b.MinLon == 0 && b.MaxLon == 0 {
		b.MinLat, b.MaxLat, b.MinLon, b.MaxLon = p.Lat, p.Lat, p.Lon, p.Lon
		return
	}
	b.MinLat = math.Min(b.MinLat, p.Lat)
	b.MaxLat = math.Max(b.MaxLat, p.Lat)
	b.MinLon = math.Min(b.MinLon, p.Lon)
	b.MaxLon = math.Max(b.MaxLon, p.Lon)
}

// BoundsOf returns the bounding box of pts. It panics on an empty
// input.
func BoundsOf(pts []Point) BoundingBox {
	if len(pts) == 0 {
		panic("geo: BoundsOf empty slice")
	}
	b := BoundingBox{MinLat: pts[0].Lat, MaxLat: pts[0].Lat, MinLon: pts[0].Lon, MaxLon: pts[0].Lon}
	for _, p := range pts[1:] {
		b.Expand(p)
	}
	return b
}
