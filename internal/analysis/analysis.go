// Package analysis is a small, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary: an Analyzer inspects one
// typechecked package through a Pass and reports Diagnostics.
//
// The repo's correctness rests on invariants the compiler cannot see —
// collective tags must be unique per concurrent operation, simulation
// results must be bit-reproducible, blocking sends must not happen under a
// held lock, tensors must not leak their backing arrays, hot paths must not
// allocate. The analyzers under this package (rawtag, determinism, locksend,
// sliceret, hotalloc) encode those invariants, one package at a time;
// cmd/embracevet is the multichecker driver that runs them all, and
// `make lint` wires them into the build.
//
// Suppression: a finding can be silenced with a justification comment on the
// offending line (or the line directly above it):
//
//	//embrace:allow <analyzer> <justification>
//
// A directive without a justification is itself reported. DESIGN.md §
// "Static analysis" documents each analyzer and the invariant it guards.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in output and in //embrace:allow
	// directives. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run inspects a package via pass and reports findings through
	// pass.Reportf. The returned value is ignored by the driver (kept for
	// x/tools API parity).
	Run func(pass *Pass) (any, error)
}

// Pass connects an Analyzer to the single package unit being checked.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset maps token.Pos to file positions for every file of the unit.
	Fset *token.FileSet
	// Files are the parsed files of the unit, comments included.
	Files []*ast.File
	// Pkg is the typechecked package.
	Pkg *types.Package
	// TypesInfo holds the resolution tables (Uses, Defs, Types, ...).
	TypesInfo *types.Info
	// report receives each finding; installed by the checker.
	report func(Diagnostic)
}

// Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
	// Suppressed marks a finding silenced by a justified //embrace:allow
	// directive. The checker returns suppressed findings (so drivers can
	// surface them in audits, e.g. -json) but they do not fail a run.
	Suppressed bool
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// Inspect walks every file of the pass in source order, calling f on each
// node exactly as ast.Inspect does.
func (p *Pass) Inspect(f func(ast.Node) bool) {
	for _, file := range p.Files {
		ast.Inspect(file, f)
	}
}

// CalleeFunc resolves the *types.Func a call expression invokes, through
// parentheses and method selectors. It returns nil for calls through
// function-typed variables, conversions, and builtins.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			fn, _ := info.Uses[id].(*types.Func)
			return fn
		}
		if sel, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
			fn, _ := info.Uses[sel.Sel].(*types.Func)
			return fn
		}
	case *ast.IndexListExpr:
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			fn, _ := info.Uses[id].(*types.Func)
			return fn
		}
		if sel, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
			fn, _ := info.Uses[sel.Sel].(*types.Func)
			return fn
		}
	}
	return nil
}

// PkgPathOf returns the import path of the package a function belongs to, or
// "" for builtins.
func PkgPathOf(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// ReceiverType returns the named type of fn's receiver (dereferencing one
// pointer), or nil for package-level functions.
func ReceiverType(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
