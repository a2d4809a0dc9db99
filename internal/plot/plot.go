// Package plot renders the study's geospatial figures as character
// rasters: coverage shapes over a landmass (Fig 12), walk traces with
// received/lost packets (Fig 15), and scatter layers generally. The
// output is deliberately terminal-grade — the reproduction's figures
// are numbers first, but a glanceable map makes the geometry honest.
package plot

import (
	"math"
	"strings"

	"peoplesnet/internal/geo"
)

// Canvas is a character grid over a lat/lon viewport.
type Canvas struct {
	W, H   int
	bounds geo.BoundingBox
	cells  [][]rune
}

// NewCanvas creates a canvas covering bounds with the given character
// dimensions. Width covers longitude, height latitude (flipped so
// north is up).
func NewCanvas(bounds geo.BoundingBox, w, h int) *Canvas {
	if w < 2 {
		w = 2
	}
	if h < 2 {
		h = 2
	}
	cells := make([][]rune, h)
	for i := range cells {
		cells[i] = make([]rune, w)
		for j := range cells[i] {
			cells[i][j] = ' '
		}
	}
	return &Canvas{W: w, H: h, bounds: bounds, cells: cells}
}

// FitCanvas builds a canvas sized w×h around the given points with a
// margin.
func FitCanvas(pts []geo.Point, w, h int, marginFrac float64) *Canvas {
	if len(pts) == 0 {
		return NewCanvas(geo.BoundingBox{MinLat: -1, MinLon: -1, MaxLat: 1, MaxLon: 1}, w, h)
	}
	b := geo.BoundsOf(pts)
	dLat := math.Max((b.MaxLat-b.MinLat)*marginFrac, 1e-4)
	dLon := math.Max((b.MaxLon-b.MinLon)*marginFrac, 1e-4)
	b.MinLat -= dLat
	b.MaxLat += dLat
	b.MinLon -= dLon
	b.MaxLon += dLon
	return NewCanvas(b, w, h)
}

// cell maps a point to grid coordinates; ok is false outside the
// viewport.
func (c *Canvas) cell(p geo.Point) (row, col int, ok bool) {
	if !c.bounds.Contains(p) {
		return 0, 0, false
	}
	fx := (p.Lon - c.bounds.MinLon) / (c.bounds.MaxLon - c.bounds.MinLon)
	fy := (p.Lat - c.bounds.MinLat) / (c.bounds.MaxLat - c.bounds.MinLat)
	col = int(fx * float64(c.W-1))
	row = c.H - 1 - int(fy*float64(c.H-1)) // north up
	return row, col, true
}

// Plot marks a single point with ch. Later layers overwrite earlier
// ones.
func (c *Canvas) Plot(p geo.Point, ch rune) {
	if row, col, ok := c.cell(p); ok {
		c.cells[row][col] = ch
	}
}

// PlotMajority marks each cell with the rune that the most points
// voted for — the right way to draw dense packet traces where a cell
// aggregates many outcomes (Fig 15's green/red dots).
func (c *Canvas) PlotMajority(pts []geo.Point, marks []rune) {
	if len(pts) != len(marks) {
		return
	}
	type key struct{ r, c int }
	votes := make(map[key]map[rune]int)
	for i, p := range pts {
		if row, col, ok := c.cell(p); ok {
			k := key{row, col}
			if votes[k] == nil {
				votes[k] = make(map[rune]int)
			}
			votes[k][marks[i]]++
		}
	}
	for k, v := range votes {
		best, bestN := ' ', 0
		for ch, n := range v {
			if n > bestN || (n == bestN && ch < best) {
				best, bestN = ch, n
			}
		}
		c.cells[k.r][k.c] = best
	}
}

// String renders the canvas with a border.
func (c *Canvas) String() string {
	var sb strings.Builder
	sb.WriteString("+" + strings.Repeat("-", c.W) + "+\n")
	for _, row := range c.cells {
		sb.WriteString("|")
		sb.WriteString(string(row))
		sb.WriteString("|\n")
	}
	sb.WriteString("+" + strings.Repeat("-", c.W) + "+")
	return sb.String()
}

// Coverage density: count per cell, rendered as intensity ramp.
type Density struct {
	canvas *Canvas
	counts [][]int
	peak   int
}

// NewDensity builds a density layer over the same viewport.
func NewDensity(bounds geo.BoundingBox, w, h int) *Density {
	d := &Density{canvas: NewCanvas(bounds, w, h)}
	d.counts = make([][]int, d.canvas.H)
	for i := range d.counts {
		d.counts[i] = make([]int, d.canvas.W)
	}
	return d
}

// Add accumulates one point.
func (d *Density) Add(p geo.Point) {
	if row, col, ok := d.canvas.cell(p); ok {
		d.counts[row][col]++
		if d.counts[row][col] > d.peak {
			d.peak = d.counts[row][col]
		}
	}
}

// String renders with the intensity ramp " .:-=+*#%@".
func (d *Density) String() string {
	ramp := []rune(" .:-=+*#%@")
	for row := range d.counts {
		for col, n := range d.counts[row] {
			level := 0
			if d.peak > 0 && n > 0 {
				level = 1 + n*(len(ramp)-2)/d.peak
			}
			d.canvas.cells[row][col] = ramp[level]
		}
	}
	return d.canvas.String()
}
