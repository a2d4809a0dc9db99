package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// Result is the outcome of running analyzers over one package:
// surviving findings, plus the findings an allowlist comment silenced.
type Result struct {
	Diagnostics  []Diagnostic
	Suppressions []Suppression
}

// LintAllow audits the escape hatch itself. The malformed-comment and
// unknown-analyzer checks live in the harness (parseAllows) so they
// can never be skipped by analyzer selection; this pass's own
// contribution is staleness: an //lint:allow whose named analyzer ran
// and reported nothing on the covered lines suppresses nothing, and a
// suppression that outlives its finding is an audit trail pointing at
// code that no longer exists. Run is a no-op — the harness implements
// the checks around the analyzer loop, where the match state lives.
var LintAllow = &Analyzer{
	Name: "lintallow",
	Doc: "audit //lint:allow suppressions: malformed comments and unknown\n" +
		"analyzer names are findings (enforced by the harness even when this\n" +
		"pass is deselected), and an allow whose analyzer ran yet matched no\n" +
		"finding is stale and must be deleted — an unaudited escape hatch\n" +
		"rots into a blanket waiver.",
	Run: func(*Pass) error { return nil },
}

// allowRe matches the escape-hatch comment. The reason after "--" is
// mandatory: a suppression with no justification is itself a finding.
var allowRe = regexp.MustCompile(`^//lint:allow\s+([a-z]+)\s+--\s+(\S.*)$`)

// allowSite is one parsed //lint:allow comment.
type allowSite struct {
	analyzer string
	reason   string
	line     int // the comment's own line; it covers this line and the next
	pos      token.Pos
}

// parseAllows extracts every //lint:allow comment in the package. A
// malformed allow (unknown analyzer, or a missing "-- reason") is
// reported as a diagnostic under the pseudo-analyzer "lintallow" so it
// cannot silently fail open.
func parseAllows(fset *token.FileSet, files []*ast.File, known map[string]bool) ([]allowSite, []Diagnostic) {
	var sites []allowSite
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//lint:allow") {
					continue
				}
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil {
					bad = append(bad, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "lintallow",
						Message:  "malformed suppression; use //lint:allow <analyzer> -- <reason>",
					})
					continue
				}
				if !known[m[1]] {
					bad = append(bad, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "lintallow",
						Message:  fmt.Sprintf("//lint:allow names unknown analyzer %q", m[1]),
					})
					continue
				}
				sites = append(sites, allowSite{
					analyzer: m[1],
					reason:   m[2],
					line:     fset.Position(c.Pos()).Line,
					pos:      c.Pos(),
				})
			}
		}
	}
	return sites, bad
}

// Run executes the analyzers over pkg with a fresh, private fact
// store — the intra-procedural entry point (fixture tests, one-off
// package checks). Interprocedural passes degrade leniently: with no
// imported facts they only see what this package itself exports.
func Run(pkg *Package, analyzers []*Analyzer) (Result, error) {
	return RunWithFacts(pkg, analyzers, NewFactStore())
}

// RunWithFacts executes the analyzers over pkg against a shared fact
// store, applies //lint:allow filtering, and returns surviving
// diagnostics sorted by position. The driver calls it in dependency
// order so each pass sees its dependencies' facts.
func RunWithFacts(pkg *Package, analyzers []*Analyzer, facts *FactStore) (Result, error) {
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	allows, bad := parseAllows(pkg.Fset, pkg.Files, known)

	var res Result
	res.Diagnostics = append(res.Diagnostics, bad...)
	used := make(map[*allowSite]bool)
	ran := make(map[string]bool)
	for _, a := range analyzers {
		var raw []Diagnostic
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			facts:     facts,
			report:    func(d Diagnostic) { raw = append(raw, d) },
		}
		if err := a.Run(pass); err != nil {
			return res, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
		}
		ran[a.Name] = true
		for _, d := range raw {
			if site, ok := allowed(pkg.Fset, allows, d); ok {
				used[site] = true
				res.Suppressions = append(res.Suppressions, Suppression{
					Pos:      d.Pos,
					Analyzer: d.Analyzer,
					Message:  d.Message,
					Reason:   site.reason,
				})
				continue
			}
			res.Diagnostics = append(res.Diagnostics, d)
		}
	}
	// Staleness audit (the LintAllow pass): an allow whose analyzer
	// ran and matched nothing suppresses nothing. Allows naming
	// analyzers that did NOT run this invocation are left alone — a
	// subset run cannot judge them.
	if ran[LintAllow.Name] {
		for i := range allows {
			s := &allows[i]
			if !used[s] && ran[s.analyzer] {
				res.Diagnostics = append(res.Diagnostics, Diagnostic{
					Pos:      s.pos,
					Analyzer: LintAllow.Name,
					Message:  fmt.Sprintf("//lint:allow %s matches no %s finding here; delete the stale suppression", s.analyzer, s.analyzer),
				})
			}
		}
	}
	sort.SliceStable(res.Diagnostics, func(i, j int) bool {
		return res.Diagnostics[i].Pos < res.Diagnostics[j].Pos
	})
	sort.SliceStable(res.Suppressions, func(i, j int) bool {
		return res.Suppressions[i].Pos < res.Suppressions[j].Pos
	})
	return res, nil
}

// allowed reports whether an //lint:allow comment covers d: same
// analyzer, same file, on the finding's line (trailing comment) or the
// line above (standalone comment). The returned pointer aliases the
// allows slice so callers can mark the site used.
func allowed(fset *token.FileSet, allows []allowSite, d Diagnostic) (*allowSite, bool) {
	p := fset.Position(d.Pos)
	for i := range allows {
		s := &allows[i]
		if s.analyzer != d.Analyzer {
			continue
		}
		sp := fset.Position(s.pos)
		if sp.Filename != p.Filename {
			continue
		}
		if s.line == p.Line || s.line == p.Line-1 {
			return s, true
		}
	}
	return nil, false
}
