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

// mapOrderFact marks a map-ordered visitor: a function that calls the
// function parameters at Params (argument indices) once per entry of a
// map, in map iteration order — chain.(*Ledger).EachHotspot is one. A
// function literal passed there is checked like a range body over a
// map.
type mapOrderFact struct {
	Params []int
}

func (*mapOrderFact) AFact() {}

func runDeterminism(pass *Pass) error {
	// Every package exports its visitors, deterministic or not: a
	// measuring package may visit an operational one's maps.
	visitors := exportMapOrderVisitors(pass)
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
				checkMapOrder(pass, n.Body, wrappers, visitors)
			}
			return true
		})
	}
	return nil
}

// visitorLookup returns the map-ordered parameter indices of a callee
// (nil if it is not a map-ordered visitor).
type visitorLookup func(*types.Func) []int

// exportMapOrderVisitors finds the package's map-ordered visitors,
// exports a mapOrderFact for each, and returns a lookup that answers
// for these and, through facts, for imported ones. A function is a
// visitor if it uses a function parameter inside a map-ordered body
// (mapOrderedBodies) or passes the parameter straight on as a
// visitor's callback; a fixpoint settles visitors built on visitors of
// the same package.
func exportMapOrderVisitors(pass *Pass) visitorLookup {
	local := make(map[*types.Func][]int)
	lookup := func(fn *types.Func) []int {
		if ps, ok := local[fn]; ok {
			return ps
		}
		var f mapOrderFact
		if pass.ImportObjectFact(fn, &f) {
			return f.Params
		}
		return nil
	}
	var decls []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				decls = append(decls, fd)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fd := range decls {
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if ps := mapOrderedParams(pass, fd, obj, lookup); len(ps) > len(local[obj]) {
				local[obj] = ps
				changed = true
			}
		}
	}
	for obj, ps := range local {
		pass.ExportObjectFact(obj, &mapOrderFact{Params: ps})
	}
	return lookup
}

// mapOrderedParams returns the indices of fd's function parameters
// that fd calls, or hands on, in map iteration order.
func mapOrderedParams(pass *Pass, fd *ast.FuncDecl, obj *types.Func, lookup visitorLookup) []int {
	params := obj.Type().(*types.Signature).Params()
	funcParams := make(map[*types.Var]int)
	for i := 0; i < params.Len(); i++ {
		if _, ok := params.At(i).Type().Underlying().(*types.Signature); ok {
			funcParams[params.At(i)] = i
		}
	}
	if len(funcParams) == 0 {
		return nil
	}
	ordered := make(map[int]bool)
	usesIn := func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok {
					if i, ok := funcParams[v]; ok {
						ordered[i] = true
					}
				}
			}
			return true
		})
	}
	for _, b := range mapOrderedBodies(pass, fd.Body, lookup) {
		usesIn(b.body)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			for _, k := range lookup(calleeFunc(pass, call)) {
				if k < len(call.Args) {
					if _, isLit := call.Args[k].(*ast.FuncLit); !isLit {
						usesIn(call.Args[k])
					}
				}
			}
		}
		return true
	})
	var out []int
	for i := 0; i < params.Len(); i++ {
		if ordered[i] {
			out = append(out, i)
		}
	}
	return out
}

// calleeFunc resolves a call's static callee: a package-level
// function or a method named through a selector (nil otherwise).
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// mapOrderedBody is a block that runs once per map entry, in map
// iteration order.
type mapOrderedBody struct {
	start token.Pos // variables declared before it are outer
	body  *ast.BlockStmt
	end   token.Pos // a sort after it restores determinism
	// via names the visitor a callback is passed to ("" for a range).
	via string
}

// mapOrderedBodies returns the map-ordered blocks within body: the
// bodies of range statements over maps, and the bodies of function
// literals passed as callbacks to map-ordered visitors.
func mapOrderedBodies(pass *Pass, body *ast.BlockStmt, lookup visitorLookup) []mapOrderedBody {
	var out []mapOrderedBody
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if tv, ok := pass.TypesInfo.Types[n.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					out = append(out, mapOrderedBody{start: n.Pos(), body: n.Body, end: n.End()})
				}
			}
		case *ast.CallExpr:
			fn := calleeFunc(pass, n)
			for _, k := range lookup(fn) {
				if k >= len(n.Args) {
					continue
				}
				if lit, ok := n.Args[k].(*ast.FuncLit); ok {
					out = append(out, mapOrderedBody{start: lit.Pos(), body: lit.Body, end: n.End(), via: fn.FullName()})
				}
			}
		}
		return true
	})
	return out
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

// checkMapOrder flags map-ordered blocks (mapOrderedBodies) that
// append to an outer slice — output assembled in map iteration order —
// unless the enclosing function later sorts (any sort.* / slices.Sort*
// call after the block counts as restoring determinism), and float
// sums accumulated in them.
func checkMapOrder(pass *Pass, body *ast.BlockStmt, wrappers map[types.Object]bool, visitors visitorLookup) {
	if body == nil {
		return
	}
	blocks := mapOrderedBodies(pass, body, visitors)
	if len(blocks) == 0 {
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
	for _, b := range blocks {
		if appendsToOuterSlice(pass, b) && !sortsAfter(b.end) {
			if b.via == "" {
				pass.Reportf(b.start,
					"slice assembled in map iteration order; map order is randomized per run — sort the result or iterate over sorted keys")
			} else {
				pass.Reportf(b.start,
					"slice assembled in map iteration order inside a callback of %s, which visits a map; map order is randomized per run — sort the result",
					b.via)
			}
		}
		for _, as := range floatSumsToOuter(pass, b) {
			if sums[as] {
				continue
			}
			sums[as] = true
			pass.Reportf(as.Pos(),
				"float accumulated in map iteration order; float addition is not associative, so the last bits change per run — iterate over sorted keys")
		}
	}
}

// floatSumsToOuter returns the += / -= statements in the block whose
// target is a float variable, or a field of one, declared before the
// block: a running sum whose rounding depends on map order. A target
// reached through an index (m[k] += v) accumulates per key and is
// order-independent.
func floatSumsToOuter(pass *Pass, b mapOrderedBody) []*ast.AssignStmt {
	var out []*ast.AssignStmt
	ast.Inspect(b.body, func(n ast.Node) bool {
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
			if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok && v.Pos() < b.start {
				out = append(out, as)
			}
		}
		return true
	})
	return out
}

// appendsToOuterSlice reports whether the block grows a slice
// declared outside it (the classic nondeterministic-order shape:
// out = append(out, ...) under range over a map).
func appendsToOuterSlice(pass *Pass, b mapOrderedBody) bool {
	found := false
	ast.Inspect(b.body, func(n ast.Node) bool {
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
		// the block.
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
			if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok && v.Pos() < b.start {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
