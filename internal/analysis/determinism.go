package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Determinism enforces seeded reproducibility in the packages that
// generate or measure simulated worlds: no wall-clock reads, no draws
// from the global math/rand source, and no output assembled — or
// float sum accumulated — in map iteration order. Any of these makes
// two same-seed runs diverge, which silently breaks every paper table
// in EXPERIMENTS.md.
//
// Sanctioned escape hatch: a real-time boundary (the production clock
// implementation, an OS-facing adapter) carries
// //lint:allow determinism -- <reason>.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock reads (time.Now/Since/Until), global math/rand draws,\n" +
		"and map-iteration-ordered output or float sums in world-generating and\n" +
		"measuring packages; seeded runs must reproduce the paper tables exactly.",
	Run: runDeterminism,
}

// deterministicPkgs are the packages whose outputs feed paper tables
// and must therefore be a pure function of their seed. The etl store
// and the hotspot runtime are deliberately absent: they are
// operational components whose health fields may read the clock (their
// I/O discipline is fsdiscipline's concern instead).
var deterministicPkgs = map[string]bool{
	"peoplesnet/internal/simnet":       true,
	"peoplesnet/internal/chain":        true,
	"peoplesnet/internal/poc":          true,
	"peoplesnet/internal/econ":         true,
	"peoplesnet/internal/core":         true,
	"peoplesnet/internal/coverage":     true,
	"peoplesnet/internal/stats":        true,
	"peoplesnet/internal/p2p":          true,
	"peoplesnet/internal/radio":        true,
	"peoplesnet/internal/lorawan":      true,
	"peoplesnet/internal/geo":          true,
	"peoplesnet/internal/h3lite":       true,
	"peoplesnet/internal/statechannel": true,
	"peoplesnet/internal/router":       true,
	"peoplesnet/internal/device":       true,
	"peoplesnet/internal/fieldtest":    true,
	"peoplesnet/internal/faultfs":      true,
	"peoplesnet/internal/wire":         true,
}

// wallClockFuncs are the time package functions that read the wall
// clock.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// randConstructors are the math/rand entry points that build a seeded,
// injectable generator rather than drawing from the global source.
// (These are tolerated; the repo convention is stats.RNG, but a seeded
// rand.New is at least reproducible.)
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runDeterminism(pass *Pass) error {
	if !deterministicPkgs[pass.Pkg.Path()] {
		return nil
	}
	wrappers := sortWrappers(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				checkDeterminismSelector(pass, n)
			case *ast.FuncDecl:
				// Function literals nested in the body are covered by
				// this same scan.
				checkMapOrder(pass, n.Body, wrappers)
			}
			return true
		})
	}
	return nil
}

// sortWrappers finds the package's own helpers that directly call
// sort.* or slices.*, so a local sortFoo(out) after a map-ranging loop
// counts as restoring determinism.
func sortWrappers(pass *Pass) map[types.Object]bool {
	wrappers := make(map[types.Object]bool)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			calls := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if isSortCall(pass, n) {
					calls = true
					return false
				}
				return true
			})
			if calls {
				if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
					wrappers[obj] = true
				}
			}
		}
	}
	return wrappers
}

// isSortCall reports whether n is a call into package sort or slices.
func isSortCall(pass *Pass, n ast.Node) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	p := obj.Pkg().Path()
	return p == "sort" || p == "slices"
}

// checkDeterminismSelector flags wall-clock reads and global-source
// math/rand draws.
func checkDeterminismSelector(pass *Pass, sel *ast.SelectorExpr) {
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return
	}
	if _, isFunc := obj.(*types.Func); !isFunc {
		return
	}
	// Method calls (e.g. (*stats.RNG).Intn, (*rand.Rand).Intn) have a
	// receiver and are the sanctioned seeded path.
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		return
	}
	switch obj.Pkg().Path() {
	case "time":
		if wallClockFuncs[obj.Name()] {
			pass.Reportf(sel.Pos(),
				"time.%s reads the wall clock in a deterministic package; inject a clock or seeded timestamp instead",
				obj.Name())
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[obj.Name()] {
			pass.Reportf(sel.Pos(),
				"rand.%s draws from the global math/rand source; use an injected seeded *stats.RNG instead",
				obj.Name())
		}
	}
}

// checkMapOrder flags loops that range over a map and append to an
// outer slice — output assembled in map iteration order — unless the
// enclosing function later sorts (any sort.* / slices.Sort* call after
// the loop counts as restoring determinism).
func checkMapOrder(pass *Pass, body *ast.BlockStmt, wrappers map[types.Object]bool) {
	if body == nil {
		return
	}
	var ranges []*ast.RangeStmt
	ast.Inspect(body, func(n ast.Node) bool {
		if r, ok := n.(*ast.RangeStmt); ok {
			if tv, ok := pass.TypesInfo.Types[r.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					ranges = append(ranges, r)
				}
			}
		}
		return true
	})
	if len(ranges) == 0 {
		return
	}
	sortsAfter := func(pos token.Pos) bool {
		found := false
		ast.Inspect(body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || call.Pos() < pos {
				return true
			}
			if isSortCall(pass, call) {
				found = true
				return false
			}
			if id, ok := call.Fun.(*ast.Ident); ok && wrappers[pass.TypesInfo.Uses[id]] {
				found = true
				return false
			}
			return true
		})
		return found
	}
	sums := make(map[*ast.AssignStmt]bool) // nested map loops see a sum twice
	for _, r := range ranges {
		if appendsToOuterSlice(pass, r) && !sortsAfter(r.End()) {
			pass.Reportf(r.Pos(),
				"slice assembled in map iteration order; map order is randomized per run — sort the result or iterate over sorted keys")
		}
		for _, as := range floatSumsToOuter(pass, r) {
			if sums[as] {
				continue
			}
			sums[as] = true
			pass.Reportf(as.Pos(),
				"float accumulated in map iteration order; float addition is not associative, so the last bits change per run — iterate over sorted keys")
		}
	}
}

// floatSumsToOuter returns the += / -= statements in the range body
// whose target is a float variable, or a field of one, declared before
// the loop: a running sum whose rounding depends on map order. A
// target reached through an index (m[k] += v) accumulates per key and
// is order-independent.
func floatSumsToOuter(pass *Pass, r *ast.RangeStmt) []*ast.AssignStmt {
	var out []*ast.AssignStmt
	ast.Inspect(r.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || (as.Tok != token.ADD_ASSIGN && as.Tok != token.SUB_ASSIGN) || len(as.Lhs) != 1 {
			return true
		}
		tv, ok := pass.TypesInfo.Types[as.Lhs[0]]
		if !ok {
			return true
		}
		if b, ok := tv.Type.Underlying().(*types.Basic); !ok || b.Info()&types.IsFloat == 0 {
			return true
		}
		base := as.Lhs[0]
		for {
			se, ok := base.(*ast.SelectorExpr)
			if !ok {
				break
			}
			base = se.X
		}
		if id, ok := base.(*ast.Ident); ok {
			if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok && v.Pos() < r.Pos() {
				out = append(out, as)
			}
		}
		return true
	})
	return out
}

// appendsToOuterSlice reports whether the range body grows a slice
// declared outside the loop (the classic nondeterministic-order shape:
// out = append(out, ...) under range over a map).
func appendsToOuterSlice(pass *Pass, r *ast.RangeStmt) bool {
	found := false
	ast.Inspect(r.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "append" {
			return true
		}
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
			return true
		}
		if len(call.Args) == 0 {
			return true
		}
		// Only the append(x, ...) ... x = append(x, ...) shape matters:
		// the first argument must resolve to a variable declared before
		// the loop.
		base := call.Args[0]
		for {
			if ix, ok := base.(*ast.IndexExpr); ok {
				base = ix.X
				continue
			}
			if se, ok := base.(*ast.SelectorExpr); ok {
				base = se.X
				continue
			}
			break
		}
		if id, ok := base.(*ast.Ident); ok {
			if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok && v.Pos() < r.Pos() {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
