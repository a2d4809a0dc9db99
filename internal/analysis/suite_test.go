package analysis

import "testing"

// TestRepoLintsClean runs the full nine-analyzer suite over the real
// module through the fact-propagating driver: the tree must carry
// zero findings, and every suppression must belong to a sanctioned
// boundary. This is `make lint` as a test.
func TestRepoLintsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	paths, err := l.Packages("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 10 {
		t.Fatalf("expected the whole module, enumerated only %d packages: %v", len(paths), paths)
	}
	drv := &Driver{Loader: l, Analyzers: All()}
	results, err := drv.Run(paths)
	if err != nil {
		t.Fatal(err)
	}
	suppressions := 0
	for _, path := range paths {
		res := results[path]
		for _, d := range res.Diagnostics {
			t.Errorf("%s: [%s] %s", l.Fset.Position(d.Pos), d.Analyzer, d.Message)
		}
		suppressions += len(res.Suppressions)
	}
	// The allowlist is part of the contract: the module carries no
	// suppression, so any new //lint:allow must be a conscious, reviewed
	// change to this count.
	const sanctioned = 0
	if suppressions != sanctioned {
		t.Errorf("module carries %d suppressions, want %d; run `make lint-fix-scan` and review", suppressions, sanctioned)
	}
}
