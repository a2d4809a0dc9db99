// Command peoplesnetlint runs the repo's custom static-analysis suite
// (internal/analysis): fsdiscipline, determinism, txnexhaustive,
// closecheck, mutexguard, tickerstop, goroutinelife, ctxflow, and
// lintallow.
//
//	peoplesnetlint ./...
//
// It analyzes the module-internal dependency closure in dependency
// order through the parallel driver, so the interprocedural passes
// (goroutinelife, ctxflow, mutexguard) see the facts their
// dependencies export.
//
// Flags:
//
//	-list          print the analyzers and what they enforce
//	-analyzers a,b run a subset
//	-suppressions  print every //lint:allow suppression instead of
//	               findings, so the escape hatch can be audited
//	-json          emit a machine-readable report (findings and
//	               suppressions, schema internal/analysis.Report)
//	-workers n     bound analysis parallelism (default GOMAXPROCS)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"peoplesnet/internal/analysis"
)

func main() {
	log := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "peoplesnetlint: "+format+"\n", args...)
	}

	var (
		list         = flag.Bool("list", false, "list analyzers and exit")
		suppressions = flag.Bool("suppressions", false, "print //lint:allow suppressions instead of findings")
		selection    = flag.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
		jsonOut      = flag.Bool("json", false, "emit findings and suppressions as a JSON report")
		workers      = flag.Int("workers", 0, "bound analysis parallelism (default GOMAXPROCS)")
	)
	flag.Parse()

	analyzers := analysis.All()
	if *selection != "" {
		var err error
		analyzers, err = analysis.ByName(strings.Split(*selection, ","))
		if err != nil {
			log("%v", err)
			os.Exit(2)
		}
	}

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%s:\n", a.Name)
			for _, line := range strings.Split(a.Doc, "\n") {
				fmt.Printf("    %s\n", line)
			}
		}
		return
	}

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	os.Exit(runStandalone(args, analyzers, *suppressions, *jsonOut, *workers, log))
}

// runStandalone analyzes the dependency closure of the requested
// packages through the parallel, fact-propagating driver, then prints
// findings for the packages that were actually requested.
func runStandalone(patterns []string, analyzers []*analysis.Analyzer, printSuppressions, jsonOut bool, workers int, log func(string, ...any)) int {
	cwd, err := os.Getwd()
	if err != nil {
		log("%v", err)
		return 2
	}
	loader, err := analysis.NewLoader(cwd)
	if err != nil {
		log("%v", err)
		return 2
	}
	requested := make(map[string]bool)
	var paths []string
	for _, pat := range patterns {
		ps, err := loader.Packages(pat)
		if err != nil {
			log("%v", err)
			return 2
		}
		for _, p := range ps {
			if !requested[p] {
				requested[p] = true
				paths = append(paths, p)
			}
		}
	}

	drv := &analysis.Driver{Loader: loader, Analyzers: analyzers, Workers: workers}
	results, err := drv.Run(paths)
	if err != nil {
		log("%v", err)
		return 2
	}
	// The driver analyzes dependencies for their facts; report only on
	// what was asked for.
	for p := range results {
		if !requested[p] {
			delete(results, p)
		}
	}

	if jsonOut {
		rep := analysis.BuildReport(loader.Fset, analyzers, results, cwd)
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			log("%v", err)
			return 2
		}
		if len(rep.Findings) > 0 {
			return 1
		}
		return 0
	}

	order := make([]string, 0, len(results))
	for p := range results {
		order = append(order, p)
	}
	sort.Strings(order)
	exit := 0
	for _, path := range order {
		res := results[path]
		if printSuppressions {
			for _, s := range res.Suppressions {
				fmt.Printf("%s: %s: suppressed: %s (reason: %s)\n",
					rel(cwd, loader.Fset.Position(s.Pos)), s.Analyzer, s.Message, s.Reason)
			}
			continue
		}
		for _, d := range res.Diagnostics {
			fmt.Printf("%s: %s: %s\n", rel(cwd, loader.Fset.Position(d.Pos)), d.Analyzer, d.Message)
			if exit == 0 {
				exit = 1
			}
		}
	}
	return exit
}

// rel shortens a diagnostic position to be relative to the working
// directory, keeping output stable across checkouts.
func rel(cwd string, p token.Position) string {
	if r, err := filepath.Rel(cwd, p.Filename); err == nil && !strings.HasPrefix(r, "..") {
		p.Filename = r
	}
	return p.String()
}
