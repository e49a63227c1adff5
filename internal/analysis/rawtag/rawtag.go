// Package rawtag flags hand-numbered transport tags outside the packages
// that own the tag machinery.
//
// PR 1 fixed a real bug of this class: two call sites reused a hand-picked
// gather tag, so two logically distinct collectives shared a transport tag
// space and crosstalked (the "magic gather tag"). The Communicator's
// (op, step) addressing makes that collision structurally impossible, but
// only if callers actually use it — this analyzer is the ratchet that keeps
// hand-numbered tags from creeping back in. It reports comm.Transport
// Send/Recv calls whose tag argument is an integer literal or constant — a
// hand-numbered tag on the raw fabric.
//
// internal/collective and internal/comm are exempt: they implement the tag
// machinery and must speak raw tags.
package rawtag

import (
	"go/ast"
	"go/constant"
	"go/token"
	"strings"

	"embrace/internal/analysis"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "rawtag",
	Doc:  "forbid literal-tag Transport sends and receives outside internal/collective and internal/comm",
	Run:  run,
}

// exempt reports whether the unit owns the tag machinery.
func exempt(path string) bool {
	path = strings.TrimSuffix(path, "_test")
	return strings.HasSuffix(path, "internal/collective") || strings.HasSuffix(path, "internal/comm")
}

func run(pass *analysis.Pass) (any, error) {
	if exempt(pass.Pkg.Path()) {
		return nil, nil
	}
	pass.Inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.CalleeFunc(pass.TypesInfo, call)
		if fn == nil {
			return true
		}
		if recv := analysis.ReceiverType(fn); recv != nil &&
			recv.Obj().Name() == "Transport" && recv.Obj().Pkg() != nil &&
			strings.HasSuffix(recv.Obj().Pkg().Path(), "internal/comm") {
			var tagArg ast.Expr
			switch fn.Name() {
			case "Send", "Recv":
				if len(call.Args) >= 2 {
					tagArg = call.Args[1]
				}
			}
			if tagArg != nil && (isIntLiteral(tagArg) || isConstInt(pass, tagArg)) {
				pass.Reportf(call.Pos(),
					"raw Transport.%s with a hand-numbered tag literal: allocate tags via Communicator.Tag(op)", fn.Name())
			}
		}
		return true
	})
	return nil, nil
}

// isIntLiteral matches 7, -7, +7 and parenthesized forms: the hand-numbered
// tags the Communicator exists to eliminate.
func isIntLiteral(e ast.Expr) bool {
	switch v := ast.Unparen(e).(type) {
	case *ast.BasicLit:
		return v.Kind == token.INT
	case *ast.UnaryExpr:
		return (v.Op == token.SUB || v.Op == token.ADD) && isIntLiteral(v.X)
	}
	return false
}

// isConstInt matches named constants and constant arithmetic (a magic tag
// hidden behind `const gatherTag = 9999` is still a magic tag). Tags minted
// by Communicator.Tag are runtime values and never constant.
func isConstInt(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.Value != nil && tv.Value.Kind() == constant.Int
}
