package analysis

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// FSDiscipline enforces the durable store's I/O discipline: inside
// internal/etl — and inside any package that accepts an etl.FS — file
// operations must go through the injectable FS, never directly through
// package os. Direct calls bypass internal/faultfs, so the crash
// matrix silently stops covering them. The one sanctioned home for os
// calls is fs.go, where the production OSFS passthrough lives.
var FSDiscipline = &Analyzer{
	Name: "fsdiscipline",
	Doc: "forbid direct os file I/O in packages that run on an injectable etl.FS;\n" +
		"a direct call bypasses the internal/faultfs crash matrix. Only fs.go,\n" +
		"the production OSFS passthrough, may touch package os.",
	Run: runFSDiscipline,
}

// etlPath is the import path of the durable store package.
const etlPath = "peoplesnet/internal/etl"

// osFileFuncs are the package-os entry points that mutate or read the
// filesystem and therefore must be virtualized behind etl.FS.
var osFileFuncs = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
	"ReadFile": true, "WriteFile": true, "ReadDir": true,
	"Rename": true, "Remove": true, "RemoveAll": true,
	"Mkdir": true, "MkdirAll": true, "MkdirTemp": true, "Truncate": true,
	// Metadata probes matter too: the lazy-open and WAL paths decide
	// behavior on existence checks, and a direct os.Stat would
	// dodge injected not-exist faults just as a direct read would.
	"Stat": true, "Lstat": true, "Link": true, "Symlink": true, "Chtimes": true,
}

func runFSDiscipline(pass *Pass) error {
	if !fsScoped(pass) {
		return nil
	}
	for _, f := range pass.Files {
		name := filepath.Base(pass.Fset.Position(f.Pos()).Filename)
		if pass.Pkg.Path() == etlPath && name == "fs.go" {
			continue // the OSFS passthrough is the sanctioned os user
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if !osFileFuncs[sel.Sel.Name] {
				return true
			}
			if obj := pass.TypesInfo.Uses[sel.Sel]; obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "os" {
				return true
			}
			pass.Reportf(sel.Pos(),
				"direct os.%s bypasses the injectable etl.FS; the faultfs crash matrix cannot cover it — route the call through the store's FS",
				sel.Sel.Name)
			return true
		})
	}
	return nil
}

// fsScoped reports whether the package is bound by the FS discipline:
// the etl package itself, or any package that mentions the etl.FS or
// etl.File types (i.e. accepts or implements the injectable surface).
func fsScoped(pass *Pass) bool {
	if pass.Pkg.Path() == etlPath {
		return true
	}
	for _, obj := range pass.TypesInfo.Uses {
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.Pkg() == nil {
			continue
		}
		if strings.HasSuffix(tn.Pkg().Path(), "internal/etl") &&
			(tn.Name() == "FS" || tn.Name() == "File") {
			return true
		}
	}
	return false
}
