// Command chainalyze replays a chain file written by heliumsim and
// runs the chain-derived analyses of §3–§5 and §7 over it (the
// p2p/IP analyses need the live world; use heliumsim -report for the
// complete set). The analyses resolve through an ETL store, measured
// in place by peoplesnet.MeasureStoreWith: an in-memory index by
// default, or a durable one with -store.
//
// Usage:
//
//	chainalyze chain.jsonl
//	chainalyze -store ./etl-store chain.jsonl   # reuse the durable index across runs
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"peoplesnet"
	"peoplesnet/internal/chain"
	"peoplesnet/internal/etl"
	"peoplesnet/internal/names"
)

// errUsage marks a command line chainalyze cannot run; main exits 2.
var errUsage = errors.New("usage: chainalyze [-poc-weight N] [-store DIR] <chain.jsonl>")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "chainalyze:", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run parses args, indexes the chain file and writes the report to
// stdout.
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("chainalyze", flag.ContinueOnError)
	pocWeight := fs.Float64("poc-weight", 600, "notional transactions per sampled PoC receipt")
	storeDir := fs.String("store", "", "durable ETL store directory: reloaded if present, created and caught up otherwise")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}
	if fs.NArg() != 1 {
		return errUsage
	}
	c, err := readChain(fs.Arg(0))
	if err != nil {
		return err
	}

	var store *etl.Store
	if *storeDir == "" {
		start := time.Now()
		store = etl.FromChain(c)
		st := store.Stats()
		fmt.Fprintf(stdout, "etl: %d segments (+%d pending blocks) in %v, %d type / %d actor postings\n",
			st.Segments, st.PendingBlocks, time.Since(start).Round(time.Millisecond),
			st.TypePostings, st.ActorPostings)
	} else {
		if store, err = openStore(*storeDir, c, stdout); err != nil {
			return err
		}
		defer func() {
			if cerr := store.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("store close: %w", cerr)
			}
		}()
	}

	// The store is measured in place — MeasureStoreWith never rebuilds
	// an index the store already holds.
	study := peoplesnet.MeasureStoreWith(store, nil,
		peoplesnet.MeasureOptions{ResaleTopN: 10, PoCWeight: *pocWeight})
	if study.LedgerErr != nil {
		return fmt.Errorf("ledger: %w", study.LedgerErr)
	}
	printReport(stdout, c, study)
	return nil
}

// readChain replays a chain file.
func readChain(path string) (*chain.Chain, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c, err := chain.ReadChain(f)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	return c, nil
}

// openStore opens the durable store at dir, repairs any quarantined
// range from c and catches it up to c's tip.
func openStore(dir string, c *chain.Chain, stdout io.Writer) (*etl.Store, error) {
	start := time.Now()
	store, err := etl.Open(dir, etl.Config{})
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	reloaded := store.Height()
	opened := time.Since(start)
	if gaps := store.Gaps(); len(gaps) > 0 {
		fmt.Fprintf(stdout, "store: %d quarantined range(s) %v — repairing from chain file\n", len(gaps), gaps)
		if err := store.Repair(c); err != nil {
			store.Close()
			return nil, fmt.Errorf("store repair: %w", err)
		}
	}
	if err := store.BulkLoad(c); err != nil {
		store.Close()
		return nil, fmt.Errorf("store load: %w", err)
	}
	h := store.Health()
	fmt.Fprintf(stdout, "store: %s reloaded to height %d in %v, caught up to %d (%d/%d segments loaded, %d WAL blocks)\n",
		dir, reloaded, opened.Round(time.Millisecond), store.Height(),
		h.SegmentsLoaded, h.Segments, h.WALDepth)
	return store, nil
}

// printReport renders the chain-derived analyses of a study.
func printReport(w io.Writer, c *chain.Chain, st *peoplesnet.Study) {
	s, m, g, o, r, tr, audit := st.Summary, st.Moves, st.Growth, st.Ownership, st.Resale, st.Traffic, st.Audit
	fmt.Fprintf(w, "chain: %d blocks to height %d, %d txns (notional), PoC %.2f%%\n",
		len(c.Blocks()), c.Height(), s.TotalTxns, s.PoCFraction*100)

	fmt.Fprintf(w, "moves: %d hotspots, never-moved %.1f%%, >500 km moves %d\n",
		m.Hotspots, m.NeverMovedFrac*100, len(m.LongMoves))
	fmt.Fprintf(w, "       intervals: day %.1f%% / week %.1f%% / month %.1f%%\n",
		m.WithinDayFrac*100, m.WithinWeekFrac*100, m.WithinMoFrac*100)

	fmt.Fprintf(w, "growth: %d adds total, %.0f/day at the end\n", g.Total, g.FinalRate)

	fmt.Fprintf(w, "owners: %d, own-1 %.1f%%, ≤3 %.1f%%, max %d\n",
		o.Owners, o.OwnOneFrac*100, o.AtMostThree*100, o.MaxOwned)

	fmt.Fprintf(w, "resale: %d transfers over %d hotspots (%.1f%%), zero-DC %.1f%%\n",
		r.TotalTransfers, r.TransferredHotspots, r.TransferredFrac*100, r.ZeroDCFrac*100)

	fmt.Fprintf(w, "traffic: %d packets, console share %.1f%%, final %.2f pkt/s\n",
		tr.TotalPackets, tr.ConsoleShare*100, tr.FinalPktPerSec)
	if tr.SpikeStartBlock > 0 {
		fmt.Fprintf(w, "         spike blocks %d–%d (peak %.0f pkts/close)\n",
			tr.SpikeStartBlock, tr.SpikeEndBlock, tr.SpikePeak)
	}

	fmt.Fprintf(w, "audit: %d silent movers, %d lying witnesses, %d clique suspects\n",
		len(audit.SilentMovers), len(audit.LyingWitness), len(audit.CliqueSuspects))
	for i, sm := range audit.SilentMovers {
		if i >= 5 {
			break
		}
		fmt.Fprintf(w, "  silent mover %q: witnesses %.0f km from asserted location\n",
			names.FromAddress(sm.Hotspot), sm.MedianWitnessKm)
	}
}
