// Command heliumsim generates a synthetic Helium world and writes its
// blockchain as JSON lines, optionally printing the full measurement
// report.
//
// Usage:
//
//	heliumsim -scale small -seed 42 -out chain.jsonl -report
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"peoplesnet"
)

// errUsage marks a command line heliumsim cannot run; main exits 2.
var errUsage = errors.New("usage: heliumsim [-seed N] [-scale small|paper] [-shards N] [-out FILE] [-report=false]")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "heliumsim:", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run parses args, generates the world, writes its chain file if
// asked and prints the counts (and the report) to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("heliumsim", flag.ContinueOnError)
	var (
		seed   = fs.Uint64("seed", 1, "world seed")
		scale  = fs.String("scale", "small", "world scale: small | paper")
		shards = fs.Int("shards", 0, "simulation worker goroutines (0 = all CPUs); any value yields the same chain")
		out    = fs.String("out", "", "write the chain as JSON lines to this file")
		report = fs.Bool("report", true, "print the measurement report")
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
	cfg.Shards = *shards

	world, err := peoplesnet.Simulate(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "generated %d hotspots, %d txns, %d blocks (seed %d)\n",
		len(world.World.Hotspots), world.Chain.TxnCount(), len(world.Chain.Blocks()), *seed)

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		n, err := world.Chain.WriteTo(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("write: %w", err)
		}
		fmt.Fprintf(stdout, "wrote %s (%d bytes)\n", *out, n)
	}

	if *report {
		study := peoplesnet.Measure(world)
		fmt.Fprintln(stdout, study.RenderText())
	}
	return nil
}
