// Package analysis is a self-contained miniature of the
// golang.org/x/tools/go/analysis framework, built only on the standard
// library's go/ast, go/types, and go/importer packages so the repo
// needs no external module. It exists to encode the repo's
// load-bearing disciplines as machine-checked invariants:
//
//   - fsdiscipline: all durable-store I/O flows through the injectable
//     etl.FS, so the internal/faultfs crash matrix covers every byte.
//   - determinism: world-generating and measuring packages never read
//     wall clocks or the global math/rand source, so seeded runs — and
//     the paper tables derived from them — reproduce exactly.
//   - txnexhaustive: every switch over the chain transaction
//     vocabulary covers all variants or carries an explicit default,
//     so a new transaction type cannot silently vanish from a study.
//   - closecheck: Close/Sync errors on durable write handles are never
//     silently dropped, because an unchecked Close after a write is a
//     lost crash-safety guarantee.
//   - mutexguard: fields annotated `// guarded by mu` are only touched
//     in functions that acquire that guard (or are *Locked by
//     convention), so the follower-shard concurrency code cannot grow
//     lock-free accessors.
//   - tickerstop: time.Tickers and time.Timers created in a function
//     are stopped in that function unless the handle escapes, so the
//     supervisor and follower loops cannot leak wakeups across restart
//     cycles.
//
// cmd/peoplesnetlint is the driver; it runs over the module through
// the fact-propagating Driver.
//
// A finding can be suppressed — with an audit trail — by a comment on
// the offending line or the line above:
//
//	//lint:allow <analyzer> -- <reason>
//
// The reason is mandatory; `make lint-fix-scan` prints every
// suppression in the tree so the escape hatch stays reviewable.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the pass in diagnostics and in //lint:allow
	// comments. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description of what the pass enforces and
	// why, shown by `peoplesnetlint -list`.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass) error
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	facts  *FactStore
	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// A Suppression records a finding silenced by a //lint:allow comment,
// so the allowlist can be audited (`peoplesnetlint -suppressions`).
type Suppression struct {
	Pos      token.Pos // position of the suppressed finding
	Analyzer string
	Message  string // the suppressed finding
	Reason   string // the justification given in the comment
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{FSDiscipline, Determinism, TxnExhaustive, CloseCheck, MutexGuard, TickerStop, GoroutineLife, CtxFlow, LintAllow}
}

// ByName resolves a comma-separated analyzer selection.
func ByName(names []string) ([]*Analyzer, error) {
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	out := make([]*Analyzer, 0, len(names))
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}
