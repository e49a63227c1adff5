// Package commdiverge detects SPMD schedule divergence: a collective
// operation reachable only under control flow conditioned on the caller's
// rank. Collectives are rendezvous points — every rank must issue the same
// sequence with the same op/step identity, and a branch that lets rank 0
// gather while the others skip (PR 1's magic-gather-tag bug shape)
// deadlocks or silently mismatches tensors.
//
// Rank taint starts at any niladic Rank() call and spreads
// interprocedurally through the call graph: into parameters fed a rank,
// struct fields assigned one (n.rank = cm.Rank(), node{rank: cm.Rank()}),
// and functions returning one. Taint rides only on integer and boolean
// values — the types that can discriminate ranks in a condition. Errors,
// tensors, and structs may be rank-influenced (a per-rank shard, an error
// naming the failing rank) but branching on them does not partition the
// world by rank identity, and propagating through them would flag every
// `if err != nil` downstream of a rank-stamped error. Within a function, any if/switch whose
// condition touches a rank-tainted value must schedule the same collectives
// on every arm — collectives reached through callees count, via transitive
// summaries — and literal op/step arguments must agree across arms. A
// rank-conditioned arm that returns early while collectives follow the
// branch is the same bug in tail position.
//
// Point-to-point Send/Recv are exempt: they are inherently asymmetric.
// Justified exceptions: //embrace:allow commdiverge <why the schedule still
// matches>.
package commdiverge

import (
	"fmt"
	"go/ast"
	"go/types"
	"os"
	"sort"
	"strings"

	"embrace/internal/analysis"
)

const ns = "commdiverge"

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name:   "commdiverge",
	Doc:    "forbid collectives reachable only under rank-conditioned control flow, and mismatched op/step literals across rank branches",
	Finish: finish,
	Run:    run,
}

// state is the program-wide result of the Finish fixpoint, stored as one
// fact so per-unit Run passes share it.
type state struct {
	// rankFields holds field keys (pkgpath.Type.Field) ever assigned a
	// rank-derived value.
	rankFields map[string]bool
	// rankParams holds, per function key, the parameter indices fed a
	// rank-derived argument at some call site.
	rankParams map[string]map[int]bool
	// returnsRank marks functions returning a rank-derived value.
	returnsRank map[string]bool
	// reach holds each function's transitive collective schedule: the
	// multiset of collective signatures it or any callee issues.
	reach map[string][]string
}

func getState(prog *analysis.Program) *state {
	if v, ok := prog.Fact(ns, "state"); ok {
		return v.(*state)
	}
	return nil
}

// finish computes rank taint and collective reach over the whole program.
func finish(prog *analysis.Program) {
	st := &state{
		rankFields:  map[string]bool{},
		rankParams:  map[string]map[int]bool{},
		returnsRank: map[string]bool{},
		reach:       map[string][]string{},
	}
	prog.ExportFact(ns, "state", st)

	// Rank-taint fixpoint: each round re-runs every function's local flow
	// with the seeds discovered so far and records new fields, parameters,
	// and returns; the maps only grow, so this terminates.
	for range prog.Funcs {
		changed := false
		for _, fn := range prog.Funcs {
			flow := newRankFlow(st, fn)
			flow.Propagate(fn.Decl.Body)
			info := fn.Unit.Info
			ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if len(n.Lhs) != len(n.Rhs) {
						return true
					}
					for i := range n.Lhs {
						sel, ok := ast.Unparen(n.Lhs[i]).(*ast.SelectorExpr)
						if !ok {
							continue
						}
						if !rankCarrier(info.TypeOf(sel)) {
							continue
						}
						if _, tainted := flow.SourceKey(n.Rhs[i]); !tainted {
							continue
						}
						if fk := fieldKey(info, sel); fk != "" && !st.rankFields[fk] {
							st.rankFields[fk] = true
							changed = true
						}
					}
				case *ast.CompositeLit:
					changed = recordLitFields(st, info, n, flow) || changed
				case *ast.CallExpr:
					callee := analysis.CalleeFunc(info, n)
					if callee == nil {
						return true
					}
					key := analysis.FuncKeyOf(callee)
					sig, ok := callee.Type().(*types.Signature)
					if !ok {
						return true
					}
					for ai, arg := range n.Args {
						if !rankCarrier(info.TypeOf(arg)) {
							continue
						}
						if _, tainted := flow.SourceKey(arg); !tainted {
							continue
						}
						pi := ai
						if pi >= sig.Params().Len() {
							if !sig.Variadic() {
								continue
							}
							pi = sig.Params().Len() - 1
						}
						if st.rankParams[key] == nil {
							st.rankParams[key] = map[int]bool{}
						}
						if !st.rankParams[key][pi] {
							st.rankParams[key][pi] = true
							changed = true
						}
					}
				case *ast.ReturnStmt:
					if st.returnsRank[fn.Key] {
						return true
					}
					for _, res := range n.Results {
						if !rankCarrier(info.TypeOf(res)) {
							continue
						}
						if _, tainted := flow.SourceKey(res); tainted {
							st.returnsRank[fn.Key] = true
							changed = true
							break
						}
					}
				}
				return true
			})
		}
		if !changed {
			break
		}
	}

	// Transitive collective schedules: union callee schedules to a fixpoint
	// (cycle-safe, bounded by graph depth).
	direct := map[string][]string{}
	for key, fn := range prog.Funcs {
		var sigs []string
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if s := classify(fn.Unit.Info, call); s != "" {
					sigs = append(sigs, s)
				}
			}
			return true
		})
		direct[key] = sigs
		st.reach[key] = append([]string(nil), sigs...)
	}
	for range prog.Funcs {
		changed := false
		for key, fn := range prog.Funcs {
			merged := append([]string(nil), direct[key]...)
			for _, callee := range fn.Callees {
				if callee == key {
					continue
				}
				merged = append(merged, st.reach[callee]...)
			}
			merged = dedupe(merged)
			if !equalSigs(merged, st.reach[key]) {
				st.reach[key] = merged
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// recordLitFields taints struct fields initialized with rank-derived values
// in a composite literal (node{rank: cm.Rank()}).
func recordLitFields(st *state, info *types.Info, lit *ast.CompositeLit, flow *analysis.Flow) bool {
	t := info.TypeOf(lit)
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	strct, ok := named.Underlying().(*types.Struct)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	prefix := named.Obj().Pkg().Path() + "." + named.Obj().Name() + "."
	changed := false
	for i, elt := range lit.Elts {
		name := ""
		val := elt
		var ft types.Type
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok {
				name = id.Name
				for fi := 0; fi < strct.NumFields(); fi++ {
					if strct.Field(fi).Name() == name {
						ft = strct.Field(fi).Type()
						break
					}
				}
			}
			val = kv.Value
		} else if i < strct.NumFields() {
			name = strct.Field(i).Name()
			ft = strct.Field(i).Type()
		}
		if name == "" || !rankCarrier(ft) {
			continue
		}
		if _, tainted := flow.SourceKey(val); tainted && !st.rankFields[prefix+name] {
			st.rankFields[prefix+name] = true
			changed = true
		}
	}
	return changed
}

// newRankFlow builds the taint engine for one function: seeds its
// rank-tainted parameters and classifies rank sources.
func newRankFlow(st *state, fn *analysis.FuncNode) *analysis.Flow {
	info := fn.Unit.Info
	flow := analysis.NewFlow(info, func(e ast.Expr) (string, bool) {
		switch e := e.(type) {
		case *ast.CallExpr:
			callee := analysis.CalleeFunc(info, e)
			if callee == nil {
				return "", false
			}
			if callee.Name() == "Rank" && len(e.Args) == 0 {
				return "rank", true
			}
			if st.returnsRank[analysis.FuncKeyOf(callee)] {
				return "rank", true
			}
		case *ast.SelectorExpr:
			if fk := fieldKey(info, e); fk != "" && st.rankFields[fk] {
				return "rank", true
			}
		}
		return "", false
	})
	// Rank taint rides only on integer/boolean values; see rankCarrier.
	flow.Narrow = func(lhs ast.Expr) bool { return rankCarrier(info.TypeOf(lhs)) }
	idx := 0
	for _, f := range fn.Decl.Type.Params.List {
		for _, nm := range f.Names {
			if st.rankParams[fn.Key][idx] {
				flow.Tainted[nm.Name] = "rank"
			}
			idx++
		}
		if len(f.Names) == 0 {
			idx++
		}
	}
	return flow
}

// fieldKey names a struct field selection pkgpath.Type.Field, or "".
func fieldKey(info *types.Info, sel *ast.SelectorExpr) string {
	selection := info.Selections[sel]
	if selection == nil || selection.Kind() != types.FieldVal {
		return ""
	}
	t := selection.Recv()
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + selection.Obj().Name()
}

// classify renders a call as a collective signature "Name(op, step)" with
// constant arguments spelled out ("?" when not constant), or "" for
// non-collective calls. Only the collective package's entry points count
// (analysis.Collective); Send/Recv are exempt.
func classify(info *types.Info, call *ast.CallExpr) string {
	callee := analysis.CalleeFunc(info, call)
	if callee == nil {
		return ""
	}
	op, step, ok := analysis.Collective(callee)
	if !ok {
		return ""
	}
	return fmt.Sprintf("%s(%s, %s)", callee.Name(), litString(info, call, op), litString(info, call, step))
}

func litString(info *types.Info, call *ast.CallExpr, i int) string {
	if i >= len(call.Args) {
		return "?"
	}
	if tv, ok := info.Types[call.Args[i]]; ok && tv.Value != nil {
		return tv.Value.String()
	}
	return "?"
}

func dedupe(sigs []string) []string {
	sort.Strings(sigs)
	out := sigs[:0]
	for i, s := range sigs {
		if i == 0 || s != sigs[i-1] {
			out = append(out, s)
		}
	}
	return out
}

func equalSigs(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func run(pass *analysis.Pass) (any, error) {
	prog := pass.Program
	if prog == nil {
		return nil, nil
	}
	st := getState(prog)
	if st == nil {
		return nil, nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			key := analysis.DeclKey(pass.TypesInfo, fd)
			fn := prog.Funcs[key]
			if fn == nil {
				continue
			}
			checkFunc(pass, st, fn)
		}
	}
	return nil, nil
}

func checkFunc(pass *analysis.Pass, st *state, fn *analysis.FuncNode) {
	info := fn.Unit.Info
	flow := newRankFlow(st, fn)
	flow.Propagate(fn.Decl.Body)

	// COMMDIVERGE_DEBUG=1 prints every tainted leaf expression, for triaging
	// unexpected rank taint without editing the analyzer.
	debug := os.Getenv("COMMDIVERGE_DEBUG") != ""
	condTainted := func(cond ast.Expr) bool {
		tainted := false
		ast.Inspect(cond, func(n ast.Node) bool {
			if tainted && !debug {
				return false
			}
			if e, ok := n.(ast.Expr); ok {
				if _, ok := flow.SourceKey(e); ok {
					if _, isBin := e.(*ast.BinaryExpr); debug && !isBin {
						fmt.Fprintf(os.Stderr, "commdiverge: taint %s: %s\n", fn.Key, types.ExprString(e))
					}
					tainted = true
					return debug
				}
			}
			return true
		})
		return tainted
	}

	// branchSigs collects the collective schedule of a subtree: direct
	// calls plus each callee's transitive reach.
	var branchSigs func(n ast.Node) []string
	branchSigs = func(n ast.Node) []string {
		var sigs []string
		if n == nil {
			return sigs
		}
		ast.Inspect(n, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if s := classify(info, call); s != "" {
				sigs = append(sigs, s)
				return true
			}
			if callee := analysis.CalleeFunc(info, call); callee != nil {
				sigs = append(sigs, st.reach[analysis.FuncKeyOf(callee)]...)
			}
			return true
		})
		sort.Strings(sigs)
		return sigs
	}

	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			if !condTainted(n.Cond) {
				return true
			}
			thenSigs := branchSigs(n.Body)
			elseSigs := branchSigs(n.Else)
			if !equalSigs(thenSigs, elseSigs) {
				if equalSigs(names(thenSigs), names(elseSigs)) {
					pass.Reportf(n.Pos(), "rank-conditioned branches issue the same collectives with different op/step identity: %s vs %s — every rank must agree",
						join(thenSigs), join(elseSigs))
				} else {
					only, arm := diff(thenSigs, elseSigs)
					pass.Reportf(n.Pos(), "rank-conditioned branch issues %s with no matching collective on the %s arm: ranks taking the other path will never rendezvous",
						join(only), arm)
				}
				return true
			}
			if diverts(n.Body) != divertsElse(n.Else) {
				if tail := tailSigs(branchSigs, fn.Decl.Body, n); len(tail) > 0 {
					pass.Reportf(n.Pos(), "rank-conditioned early exit skips %s issued later in %s: every rank must reach the collective",
						join(tail), fn.Decl.Name.Name)
				}
			}
		case *ast.SwitchStmt:
			if n.Tag == nil || !condTainted(n.Tag) {
				return true
			}
			var arms [][]string
			hasDefault := false
			for _, c := range n.Body.List {
				cc := c.(*ast.CaseClause)
				if cc.List == nil {
					hasDefault = true
				}
				var arm []string
				for _, s := range cc.Body {
					arm = append(arm, branchSigs(s)...)
				}
				sort.Strings(arm)
				arms = append(arms, arm)
			}
			if !hasDefault {
				arms = append(arms, nil) // ranks matching no case run nothing
			}
			for i := 1; i < len(arms); i++ {
				if !equalSigs(arms[i], arms[0]) {
					pass.Reportf(n.Pos(), "rank-conditioned switch schedules different collectives across cases (%s vs %s): every rank must agree",
						join(arms[0]), join(arms[i]))
					break
				}
			}
		}
		return true
	})
}

// diverts reports whether a statement always leaves the enclosing flow
// (return, break/continue/goto, panic).
func diverts(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.BlockStmt:
		if len(s.List) == 0 {
			return false
		}
		return diverts(s.List[len(s.List)-1])
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

func divertsElse(s ast.Stmt) bool {
	if s == nil {
		return false
	}
	return diverts(s)
}

// tailSigs collects the collective schedule issued after the if statement
// in the enclosing body — what an early-exiting rank would skip.
func tailSigs(branchSigs func(ast.Node) []string, body *ast.BlockStmt, ifStmt *ast.IfStmt) []string {
	var sigs []string
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil || n.Pos() <= ifStmt.End() {
			return true
		}
		if call, ok := n.(*ast.CallExpr); ok {
			sigs = append(sigs, branchSigs(call)...)
			return false
		}
		return true
	})
	sort.Strings(sigs)
	return sigs
}

// names strips argument lists, leaving the collective method multiset.
func names(sigs []string) []string {
	out := make([]string, len(sigs))
	for i, s := range sigs {
		if j := strings.IndexByte(s, '('); j >= 0 {
			s = s[:j]
		}
		out[i] = s
	}
	sort.Strings(out)
	return out
}

// diff returns the signatures present in one arm but not the other, and
// which arm lacks them.
func diff(thenSigs, elseSigs []string) ([]string, string) {
	count := map[string]int{}
	for _, s := range thenSigs {
		count[s]++
	}
	for _, s := range elseSigs {
		count[s]--
	}
	var extra []string
	arm := "sibling"
	for s, c := range count {
		for ; c > 0; c-- {
			extra = append(extra, s)
			arm = "else"
		}
		for ; c < 0; c++ {
			extra = append(extra, s)
			arm = "then"
		}
	}
	sort.Strings(extra)
	return extra, arm
}

func join(sigs []string) string {
	if len(sigs) == 0 {
		return "none"
	}
	return strings.Join(sigs, ", ")
}

// rankCarrier reports whether a value of type t can discriminate ranks in
// control flow: integers (the rank itself, arithmetic over it) and booleans
// (predicates over it). Errors, tensors, and structs may be rank-influenced
// — a per-rank data shard, an error naming the failing rank — but branching
// on them does not partition the world by rank identity, and propagating
// taint through them flags every `if err != nil` in the module.
func rankCarrier(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsInteger|types.IsBoolean) != 0
}
