package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"peoplesnet"
	"peoplesnet/internal/core"
)

// TestReportPathsAgree runs chainalyze on a SmallWorld(1) chain file
// three ways — the in-memory index, a -store run that builds the
// store, and a -store run that reloads it — and requires the reports
// to match line for line after the first (index/store status) line.
// All three must also equal the report rendered from the raw chain,
// with no index in between.
func TestReportPathsAgree(t *testing.T) {
	w, err := peoplesnet.Simulate(peoplesnet.SmallWorld(1))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "chain.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Chain.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	report := func(args ...string) []string {
		t.Helper()
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatalf("chainalyze %v: %v", args, err)
		}
		lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
		if len(lines) < 2 {
			t.Fatalf("chainalyze %v: %d lines of output", args, len(lines))
		}
		return lines
	}
	memory := report(path)
	storeDir := filepath.Join(dir, "store")
	built := report("-store", storeDir, path)
	reloaded := report("-store", storeDir, path)

	if !strings.HasPrefix(memory[0], "etl: ") {
		t.Errorf("in-memory status line %q", memory[0])
	}
	if !strings.Contains(built[0], "reloaded to height -1") {
		t.Errorf("first -store run status line %q, want a fresh build", built[0])
	}
	if !strings.Contains(reloaded[0], "reloaded to height "+strconv.FormatInt(w.Chain.Height(), 10)) {
		t.Errorf("second -store run status line %q, want a reload to the tip", reloaded[0])
	}

	// The raw-chain reference: the same analyses over the chain itself.
	c, err := readChain(path)
	if err != nil {
		t.Fatal(err)
	}
	d := &core.Dataset{Chain: c, PoCWeight: 600}
	var ref bytes.Buffer
	printReport(&ref, c, &peoplesnet.Study{
		Summary:   d.SummarizeChain(),
		Moves:     d.AnalyzeMoves(),
		Growth:    d.AnalyzeGrowth(),
		Ownership: d.AnalyzeOwnership(),
		Resale:    d.AnalyzeResale(10),
		Traffic:   d.AnalyzeTraffic(),
		Audit:     d.AuditIncentives(1, 100),
	})
	want := strings.Split(strings.TrimRight(ref.String(), "\n"), "\n")

	for name, got := range map[string][]string{"in-memory": memory, "store build": built, "store reload": reloaded} {
		if !slices.Equal(got[1:], want) {
			t.Errorf("%s report differs from the raw-chain report:\n%s\nwant:\n%s",
				name, strings.Join(got[1:], "\n"), strings.Join(want, "\n"))
		}
	}
}

func TestUsage(t *testing.T) {
	for _, args := range [][]string{nil, {"a", "b"}, {"-fullscan", "chain.jsonl"}} {
		if err := run(args, &bytes.Buffer{}); !errors.Is(err, errUsage) {
			t.Errorf("run(%q) = %v, want the usage error", args, err)
		}
	}
}
