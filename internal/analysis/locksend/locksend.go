// Package locksend flags blocking communication performed while a mutex
// acquired in the same function is still held.
//
// The hazard is a distributed deadlock: a collective only completes when
// every rank participates, so a rank that blocks inside Send/Recv/AllReduce
// while holding a lock can stall a peer that needs that lock to reach its
// own side of the collective. Parallax and SparCML both single out this
// class (with tag reuse) as the hardest sparse-communication bugs to
// reproduce — the stall only manifests under unlucky scheduling.
//
// The analysis is intra-procedural and flow-approximate: within each
// function body (function literals are separate scopes, `go` statements are
// excluded), Lock/RLock and Unlock/RUnlock events on sync.Mutex/RWMutex
// receivers are replayed in source order against the blocking calls between
// them; a deferred unlock holds its lock to the end of the function. Calls
// considered blocking: comm.Transport Send/Recv (on the interface or any
// implementation), Communicator Send/Recv, and internal/collective's
// blocking collectives (Communicator methods and the package-level *Via
// functions).
package locksend

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"embrace/internal/analysis"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "locksend",
	Doc:  "forbid blocking Transport/collective calls while holding a sync.Mutex or RWMutex acquired in the same function",
	Run:  run,
}

// collectiveMethods and collectiveFuncs name internal/collective's blocking
// collectives: the Communicator methods, and the generic package functions
// that take the Communicator first. The point-to-point Send/Recv are not
// collectives and are absent.
var (
	collectiveMethods = map[string]bool{
		"AllReduce": true, "AllReduceBlocks": true, "ReduceScatterBlocks": true,
		"AllGatherBlocks": true, "Barrier": true, "SparseAllGather": true,
		"AlltoAllSparse": true,
	}
	collectiveFuncs = map[string]bool{"AllGatherVia": true, "AllToAllVia": true, "GatherVia": true}
)

const (
	evLock = iota
	evUnlock
	evDeferUnlock
	evBlocking
)

type event struct {
	pos  int // source order within the function
	node ast.Node
	kind int
	key  string // lock identity, e.g. "s.mu"; blocking call name otherwise
}

func run(pass *analysis.Pass) (any, error) {
	transport := findTransport(pass.Pkg)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkScopes(pass, fd.Body, transport)
		}
	}
	return nil, nil
}

// checkScopes analyzes body as one scope, then recurses into every function
// literal found inside it as its own scope.
func checkScopes(pass *analysis.Pass, body *ast.BlockStmt, transport *types.Interface) {
	var lits []*ast.FuncLit
	events := collect(pass, body, &lits, transport)
	replay(pass, events)
	for _, lit := range lits {
		checkScopes(pass, lit.Body, transport)
	}
}

// collect gathers lock and blocking-call events of one scope in source
// order. Function literals are recorded for separate analysis; the body of a
// `go` statement's call runs on another goroutine and contributes nothing to
// this scope.
func collect(pass *analysis.Pass, body *ast.BlockStmt, lits *[]*ast.FuncLit, transport *types.Interface) []event {
	var events []event
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			*lits = append(*lits, n)
			return false
		case *ast.GoStmt:
			// Arguments are evaluated here, but the call itself is not a
			// block of this goroutine. A FuncLit argument still gets its
			// own scope via the literal walk below.
			ast.Inspect(n.Call, func(m ast.Node) bool {
				if lit, ok := m.(*ast.FuncLit); ok {
					*lits = append(*lits, lit)
					return false
				}
				return true
			})
			return false
		case *ast.DeferStmt:
			if key, kind, ok := classifyLockOp(pass, n.Call); ok && kind == evUnlock {
				events = append(events, event{pos: int(n.Pos()), node: n, kind: evDeferUnlock, key: key})
			}
			// Other deferred work (including deferred blocking calls) runs
			// after the function's own unlocks; skip.
			return false
		case *ast.CallExpr:
			if key, kind, ok := classifyLockOp(pass, n); ok {
				events = append(events, event{pos: int(n.Pos()), node: n, kind: kind, key: key})
				return true
			}
			if name, ok := classifyBlocking(pass, n, transport); ok {
				events = append(events, event{pos: int(n.Pos()), node: n, kind: evBlocking, key: name})
			}
		}
		return true
	})
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	return events
}

// replay simulates the event sequence and reports blocking calls made while
// any lock is held.
func replay(pass *analysis.Pass, events []event) {
	held := map[string]bool{}   // lock key -> currently held
	sticky := map[string]bool{} // lock key -> unlock is deferred (held to end)
	var order []string
	for _, e := range events {
		switch e.kind {
		case evLock:
			if !held[e.key] {
				order = append(order, e.key)
			}
			held[e.key] = true
		case evUnlock:
			if !sticky[e.key] {
				held[e.key] = false
			}
		case evDeferUnlock:
			sticky[e.key] = true
		case evBlocking:
			for _, key := range order {
				if held[key] {
					pass.Reportf(e.node.Pos(),
						"blocking %s while %q is locked: a stalled peer holding up this collective deadlocks against the lock; release %q first",
						e.key, key, key)
					break
				}
			}
		}
	}
}

// classifyLockOp recognizes Lock/RLock/Unlock/RUnlock calls on
// sync.Mutex/RWMutex values and returns the lock's identity.
func classifyLockOp(pass *analysis.Pass, call *ast.CallExpr) (key string, kind int, ok bool) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", 0, false
	}
	recv := analysis.ReceiverType(fn)
	if recv == nil {
		return "", 0, false
	}
	switch recv.Obj().Name() {
	case "Mutex", "RWMutex":
	default:
		return "", 0, false
	}
	switch fn.Name() {
	case "Lock", "RLock":
		kind = evLock
	case "Unlock", "RUnlock":
		kind = evUnlock
	default:
		return "", 0, false
	}
	sel, ok2 := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok2 {
		return "", 0, false
	}
	return types.ExprString(sel.X), kind, true
}

// classifyBlocking recognizes the communication calls that can stall a rank:
// the collectives above, and Send/Recv on the Communicator,
// the Transport interface, or anything implementing it.
func classifyBlocking(pass *analysis.Pass, call *ast.CallExpr, transport *types.Interface) (string, bool) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return "", false
	}
	recv := analysis.ReceiverType(fn)
	if strings.HasSuffix(analysis.PkgPathOf(fn), "internal/collective") {
		switch {
		case recv == nil && collectiveFuncs[fn.Name()]:
			return "collective." + fn.Name(), true
		case recv != nil && recv.Obj().Name() == "Communicator" && collectiveMethods[fn.Name()]:
			return "Communicator." + fn.Name(), true
		}
	}
	if recv == nil || recv.Obj().Pkg() == nil || (fn.Name() != "Send" && fn.Name() != "Recv") {
		return "", false
	}
	path := recv.Obj().Pkg().Path()
	switch {
	case strings.HasSuffix(path, "internal/collective") && recv.Obj().Name() == "Communicator":
		return "Communicator." + fn.Name(), true
	case strings.HasSuffix(path, "internal/comm") && recv.Obj().Name() == "Transport":
		return "Transport." + fn.Name(), true
	case transport != nil && (types.Implements(recv, transport) || types.Implements(types.NewPointer(recv), transport)):
		// metrics.Transport, comm.TCPNode, test doubles.
		return recv.Obj().Name() + "." + fn.Name(), true
	}
	return "", false
}

// findTransport locates the comm.Transport interface through the unit's
// import graph, so implementations can be recognized by behavior rather than
// by name. Returns nil when the unit never touches comm.
func findTransport(pkg *types.Package) *types.Interface {
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package) *types.Interface
	walk = func(p *types.Package) *types.Interface {
		if seen[p] {
			return nil
		}
		seen[p] = true
		if strings.HasSuffix(p.Path(), "internal/comm") {
			if obj, ok := p.Scope().Lookup("Transport").(*types.TypeName); ok {
				if iface, ok := obj.Type().Underlying().(*types.Interface); ok {
					return iface
				}
			}
		}
		for _, imp := range p.Imports() {
			if iface := walk(imp); iface != nil {
				return iface
			}
		}
		return nil
	}
	return walk(pkg)
}
