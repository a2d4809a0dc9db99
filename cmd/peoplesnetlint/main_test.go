package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestListNamesEveryAnalyzer: -list prints each of the nine analyzers
// the package doc names, one header line apiece.
func TestListNamesEveryAnalyzer(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list exited %d: %s", code, errOut.String())
	}
	want := []string{"fsdiscipline", "determinism", "txnexhaustive", "closecheck", "mutexguard",
		"tickerstop", "goroutinelife", "ctxflow", "lintallow"}
	var got []string
	for _, line := range strings.Split(out.String(), "\n") {
		if name, ok := strings.CutSuffix(line, ":"); ok && !strings.HasPrefix(line, " ") {
			got = append(got, name)
		}
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("-list named %v, want %v", got, want)
	}
}

// TestUnknownAnalyzerIsUsageError: an -analyzers name that no analyzer
// has exits 2 and says which name it did not know.
func TestUnknownAnalyzerIsUsageError(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-analyzers", "determinism,nosuch", "."}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), `"nosuch"`) {
		t.Fatalf("stderr does not name the unknown analyzer: %q", errOut.String())
	}
}

// TestCleanPackageExitsZero: the linter's own package has no findings,
// so a run over it prints nothing and exits 0.
func TestCleanPackageExitsZero(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"."}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	if out.Len() != 0 {
		t.Fatalf("clean package printed findings:\n%s", out.String())
	}
}
