package geo

// ContiguousUS returns a simplified polygon of the contiguous United
// States landmass (CONUS), used as the denominator for Figure 12's
// coverage percentages. The ring traces the coasts and borders with
// ~40 vertices; its area evaluates to roughly 8.1 million km²,
// matching the commonly cited CONUS land+water figure (8.08 M km²)
// within a few percent, which is the precision that matters for
// coverage fractions of 0.1–3%.
//
// Vertex order: starting at the Pacific Northwest, down the west
// coast, across the southern border, around Florida, up the east
// coast, and back along the Canadian border.
func ContiguousUS() Polygon {
	return NewPolygon([]Point{
		{48.39, -124.72}, // Cape Flattery, WA
		{46.26, -124.07}, // Oregon coast
		{41.75, -124.20}, // northern California coast
		{38.95, -123.74}, // Point Arena
		{36.60, -121.90}, // Monterey
		{34.45, -120.47}, // Point Conception
		{32.53, -117.12}, // San Diego / Tijuana
		{32.72, -114.72}, // Yuma, AZ
		{31.33, -111.07}, // AZ/Sonora border
		{31.78, -106.50}, // El Paso
		{29.56, -104.40}, // Big Bend
		{26.05, -97.52},  // Brownsville, TX
		{27.80, -97.05},  // Corpus Christi bay
		{29.55, -94.50},  // Galveston
		{29.25, -91.10},  // Louisiana coast
		{30.20, -88.50},  // Mississippi sound
		{30.40, -86.60},  // Florida panhandle
		{29.00, -83.10},  // Big Bend, FL
		{26.50, -82.20},  // SW Florida
		{25.20, -80.90},  // Everglades
		{25.15, -80.25},  // Miami
		{27.20, -80.15},  // Port St. Lucie
		{28.80, -80.70},  // Cape Canaveral
		{30.70, -81.40},  // GA/FL coast
		{32.05, -80.85},  // Savannah
		{33.85, -78.55},  // Myrtle Beach
		{35.25, -75.52},  // Cape Hatteras
		{36.90, -76.00},  // Virginia Beach
		{38.95, -74.90},  // Cape May
		{40.50, -73.95},  // New York
		{41.25, -71.85},  // Rhode Island
		{42.05, -70.20},  // Cape Cod
		{43.05, -70.70},  // NH coast
		{44.80, -66.95},  // easternmost Maine
		{47.35, -68.30},  // northern Maine
		{45.00, -71.50},  // NH/Quebec
		{45.00, -74.70},  // St. Lawrence
		{43.65, -79.00},  // Niagara
		{42.30, -83.10},  // Detroit
		{46.50, -84.40},  // Sault Ste. Marie
		{48.20, -88.40},  // Lake Superior
		{49.00, -95.15},  // Northwest Angle
		{49.00, -123.05}, // WA/BC border
	})
}

// ConusAreaKm2 is the approximate reference area of the contiguous US
// used in the paper's coverage denominators.
const ConusAreaKm2 = 8.08e6

// MetroArea describes a synthetic metropolitan area used by the world
// generator: a population-weighted disc where hotspots concentrate.
type MetroArea struct {
	Name       string
	Center     Point
	RadiusKm   float64
	Population int // used as an adoption weight
	CountryISO string
}

// conus is the polygon InConus tests against, built once.
var conus = ContiguousUS()

// InConus reports whether p falls inside the simplified CONUS polygon.
func InConus(p Point) bool { return conus.Contains(p) }
