// Package h3lite implements a hierarchical hexagonal geospatial index
// modeled on Uber's H3, which Helium uses to record hotspot locations
// on chain (asserted at resolution 12, whose hexagons average a 9.4 m
// edge — paper §4.1).
//
// Like H3, h3lite assigns every (lat, lon) at every resolution 0–15 a
// 64-bit cell ID, supports cell→centroid decoding and approximate
// parent lookup. Unlike real H3 it lays pointy-top hexagons on a
// global equirectangular lattice rather than projecting an icosahedron
// gnomonically. The consequence
// is the same one the paper notes for H3 itself (footnote 7): cell
// area varies with position — here with cos(latitude) — which is
// irrelevant to analyses conducted at distances of hundreds of meters
// or more. Edge lengths follow H3's √7 subdivision so that resolution
// 12 cells have the paper's quoted ~9.4 m average edge.
package h3lite

import (
	"fmt"
	"math"

	"peoplesnet/internal/geo"
)

// MaxRes is the finest supported resolution.
const MaxRes = 15

// res0EdgeKm matches H3's resolution-0 average hex edge length.
const res0EdgeKm = 1107.712591

// kmPerDeg is the length of one degree of latitude (and of longitude
// at the equator) on the spherical Earth.
const kmPerDeg = 2 * math.Pi * geo.EarthRadiusKm / 360

// EdgeKm returns the hexagon edge length at the given resolution.
// Each resolution shrinks the edge by √7, as in H3.
func EdgeKm(res int) float64 {
	checkRes(res)
	return res0EdgeKm / math.Pow(math.Sqrt(7), float64(res))
}

func checkRes(res int) {
	if res < 0 || res > MaxRes {
		panic(fmt.Sprintf("h3lite: resolution %d outside [0,%d]", res, MaxRes))
	}
}

// Cell is a packed 64-bit hex cell identifier:
//
//	bit  63      : always 1 (distinguishes a Cell from the zero value)
//	bits 60–56   : resolution (0–15)
//	bits 55–28   : axial q coordinate, offset by 2^27
//	bits 27–0    : axial r coordinate, offset by 2^27
type Cell uint64

const (
	cellFlag    = uint64(1) << 63
	coordOffset = int64(1) << 27
	coordMask   = (uint64(1) << 28) - 1
)

// InvalidCell is the zero Cell; no valid cell equals it.
const InvalidCell Cell = 0

// Valid reports whether c is a well-formed cell ID.
func (c Cell) Valid() bool {
	if uint64(c)&cellFlag == 0 {
		return false
	}
	return c.Res() <= MaxRes
}

// Res returns the cell's resolution.
func (c Cell) Res() int { return int((uint64(c) >> 56) & 0x1f) }

func (c Cell) axial() (q, r int64) {
	q = int64((uint64(c)>>28)&coordMask) - coordOffset
	r = int64(uint64(c)&coordMask) - coordOffset
	return
}

func makeCell(res int, q, r int64) Cell {
	return Cell(cellFlag |
		uint64(res)<<56 |
		(uint64(q+coordOffset)&coordMask)<<28 |
		uint64(r+coordOffset)&coordMask)
}

// String renders the cell in an H3-flavored hex form.
func (c Cell) String() string { return fmt.Sprintf("%015x", uint64(c)) }

// FromLatLon returns the cell containing p at the given resolution.
func FromLatLon(p geo.Point, res int) Cell {
	checkRes(res)
	size := EdgeKm(res)
	x := p.Lon * kmPerDeg
	y := p.Lat * kmPerDeg
	// Pointy-top axial coordinates.
	qf := (math.Sqrt(3)/3*x - 1.0/3*y) / size
	rf := (2.0 / 3 * y) / size
	q, r := hexRound(qf, rf)
	return makeCell(res, q, r)
}

// hexRound snaps fractional axial coordinates to the nearest hex using
// cube-coordinate rounding.
func hexRound(qf, rf float64) (int64, int64) {
	sf := -qf - rf
	q := math.Round(qf)
	r := math.Round(rf)
	s := math.Round(sf)
	dq := math.Abs(q - qf)
	dr := math.Abs(r - rf)
	ds := math.Abs(s - sf)
	switch {
	case dq > dr && dq > ds:
		q = -r - s
	case dr > ds:
		r = -q - s
	}
	return int64(q), int64(r)
}

// Center returns the centroid of the cell.
func (c Cell) Center() geo.Point {
	size := EdgeKm(c.Res())
	q, r := c.axial()
	x := size * math.Sqrt(3) * (float64(q) + float64(r)/2)
	y := size * 1.5 * float64(r)
	return geo.Point{Lat: y / kmPerDeg, Lon: x / kmPerDeg}
}

// pentagonAnchors approximate the 12 icosahedron vertices where real
// H3 places its pentagonal cells. Cells near these anchors are flagged
// as "pentagonally distorted", reproducing the rare witness-validity
// artifact in the paper's PoC validity list (§8.2.1).
var pentagonAnchors = []geo.Point{
	{Lat: 90, Lon: 0},
	{Lat: 26.57, Lon: 0}, {Lat: 26.57, Lon: 72}, {Lat: 26.57, Lon: 144},
	{Lat: 26.57, Lon: -144}, {Lat: 26.57, Lon: -72},
	{Lat: -26.57, Lon: 36}, {Lat: -26.57, Lon: 108}, {Lat: -26.57, Lon: 180},
	{Lat: -26.57, Lon: -108}, {Lat: -26.57, Lon: -36},
	{Lat: -90, Lon: 0},
}

// PentagonDistorted reports whether the cell lies close enough to one
// of the twelve icosahedron anchor points that H3 distance math would
// be distorted there. The affected zone is two ring-radii around the
// anchor, making the condition rare, as in the real network.
func (c Cell) PentagonDistorted() bool {
	center := c.Center()
	limit := EdgeKm(c.Res()) * 4
	for _, a := range pentagonAnchors {
		if geo.HaversineKm(center, a) <= limit {
			return true
		}
	}
	return false
}
