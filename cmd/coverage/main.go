// Command coverage generates a world and evaluates §8.2.1's coverage
// model family (Fig 12) over the contiguous US, plus the witness
// distance and RSSI distributions (Figs 13–14).
//
// Usage:
//
//	coverage -scale small -seed 42
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"peoplesnet"
	"peoplesnet/internal/geo"
	"peoplesnet/internal/plot"
)

// errUsage marks a command line coverage cannot run; main exits 2.
var errUsage = errors.New("usage: coverage [-seed N] [-scale small|paper] [-map]")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "coverage:", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run parses args, generates the world and prints the coverage study
// (and the density map, if asked) to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("coverage", flag.ContinueOnError)
	var (
		seed    = fs.Uint64("seed", 1, "world seed")
		scale   = fs.String("scale", "small", "world scale: small | paper")
		drawMap = fs.Bool("map", false, "render a Fig 12a-style hotspot density map over CONUS")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}

	var cfg peoplesnet.WorldConfig
	switch *scale {
	case "small":
		cfg = peoplesnet.SmallWorld(*seed)
	case "paper":
		cfg = peoplesnet.PaperWorld(*seed)
	default:
		return fmt.Errorf("unknown scale %q (small|paper): %w", *scale, errUsage)
	}
	world, err := peoplesnet.Simulate(cfg)
	if err != nil {
		return err
	}
	cov := peoplesnet.CoverageStudy(world)

	fmt.Fprintf(stdout, "CONUS hotspots: %d    PoC challenges: %d\n", cov.Hotspots, cov.Challenges)
	fmt.Fprintln(stdout, "Fig 12 coverage models (% of contiguous US landmass):")
	fmt.Fprintf(stdout, "  300 m radius (12b):  %.5f%%   [paper: 0.09295%%]\n", cov.Radius300m.Fraction*100)
	fmt.Fprintf(stdout, "  convex hulls (12c):  %.5f%%\n", cov.ConvexHull.Fraction*100)
	fmt.Fprintf(stdout, "  hulls ≤25 km (12d):  %.5f%%   [paper: 0.5723%%]\n", cov.Hull25km.Fraction*100)
	fmt.Fprintf(stdout, "  radial+RSSI  (12e):  %.5f%%   [paper: 3.3032%%]\n", cov.RadialRSSI.Fraction*100)
	fmt.Fprintln(stdout, cov.WitnessDistKm.Render("Fig 13 witness distance", " km"))
	fmt.Fprintln(stdout, cov.WitnessRSSI.Render("Fig 14 witness RSSI", " dBm"))
	fmt.Fprintf(stdout, "[paper: median witness RSSI ≈ −108 dBm; RSSI growth adds ~20 m]\n")

	if *drawMap {
		fmt.Fprintln(stdout, "\nFig 12a-style density (CONUS hotspots; the paper's point: dots ≠ coverage):")
		conus := geo.ContiguousUS()
		b := conus.Bounds()
		density := plot.NewDensity(b, 100, 30)
		for _, h := range world.World.Hotspots {
			if h.Online && !h.Asserted.IsZero() && conus.Contains(h.Asserted) {
				density.Add(h.Asserted)
			}
		}
		fmt.Fprintln(stdout, density.String())
	}
	return nil
}
