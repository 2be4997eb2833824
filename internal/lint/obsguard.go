package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ObsGuard enforces the hot-path contract of the observability layer
// (BENCH_obs.json's <5% no-op overhead bar):
//
//   - Every call on a *obs.Observer or obs.Sink that is reached through a
//     struct field must be dominated by a nil check on the very value it
//     calls through. Observer methods are individually nil-safe, but an
//     unguarded call still evaluates its arguments and pays a call on
//     every hot-path event; a Sink is an interface, so an unguarded call
//     is a latent panic.
//   - No obs.Event composite literal (and no fmt.Sprint*-style
//     formatting) may execute outside such a guard in a hot-path package:
//     event construction belongs exclusively to the observer-present
//     branch.
//
// The accepted guard shapes are exactly the idioms the repository uses:
//
//	if o := r.obsv; o != nil { o.Handover(...) }
//	if s.Obs != nil { s.Obs.Step(...) }
//	if o == nil { return } ... o.RuleFired(...)
//	if s := n.sink; s != nil { s.Emit(obs.Event{...}) }
//
// The last is the discrete-event loops': they cache the sink from
// Observer.LiveSink once per run and emit to it directly.
var ObsGuard = &Analyzer{
	Name: "obsguard",
	Doc:  "observer/sink calls are nil-guarded and allocate nothing on the no-observer path",
	Packages: []string{
		"ssrmin/internal/statemodel",
		"ssrmin/internal/msgnet",
		"ssrmin/internal/runtime",
		"ssrmin/internal/check",
	},
	Run: runObsGuard,
}

func isObserverType(t types.Type) bool { return isNamed(t, "internal/obs", "Observer") }
func isSinkType(t types.Type) bool     { return isNamed(t, "internal/obs", "Sink") }
func isEventType(t types.Type) bool    { return isNamed(t, "internal/obs", "Event") }

func runObsGuard(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkObsCall(pass, n)
			case *ast.CompositeLit:
				if isEventType(pass.TypeOf(n)) && !nilGuarded(pass, n, "") {
					pass.Reportf(n.Pos(),
						"obs.Event constructed outside an observer nil-guard: event allocation must be confined to the observer-present branch")
				}
			}
			return true
		})
	}
}

// checkObsCall validates one method call whose receiver is an Observer or
// Sink.
func checkObsCall(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	recv := sel.X
	t := pass.TypeOf(recv)
	var kind string
	switch {
	case isObserverType(t):
		kind = "*obs.Observer"
	case isSinkType(t):
		kind = "obs.Sink"
	default:
		return
	}
	// Accessor calls that *retrieve* the observer (x.Observer()) are not
	// emissions; only method calls on a value of the type are checked,
	// which the type switch above already ensures.
	key := exprKey(recv)
	if key == "" {
		// Receiver is itself a call or other dynamic expression — e.g.
		// chained x.Observer().Step(...). It cannot be matched against a
		// specific nil check, so any enclosing observer guard counts.
		if !nilGuarded(pass, call, "") {
			pass.Reportf(call.Pos(),
				"call on dynamically obtained %s is not inside an observer nil-guard; bind it to a variable and check it against nil", kind)
		}
		return
	}
	if !nilGuarded(pass, call, key) {
		pass.Reportf(call.Pos(),
			"hot-path call %s.%s on %s is not dominated by a nil check; wrap it in `if o := %s; o != nil { ... }`",
			key, sel.Sel.Name, kind, key)
	}
}

// nilGuarded reports whether node n sits in a region dominated by a nil
// check. With key != "", the check must test exactly that expression;
// with key == "", any non-nil test of an Observer/Sink-typed expression
// counts (used for Event literals, which only need *some* observer
// guard).
func nilGuarded(pass *Pass, n ast.Node, key string) bool {
	parents := pass.Pkg.parents
	for cur := ast.Node(n); cur != nil; cur = parents[cur] {
		parent := parents[cur]
		switch p := parent.(type) {
		case *ast.IfStmt:
			// Inside the then-branch of `if X != nil` (possibly with an
			// init like `if o := expr; o != nil`).
			if cur == ast.Node(p.Body) && condHasNotNil(pass, p.Cond, key) {
				return true
			}
			// Inside the else-branch of `if X == nil`.
			if cur == ast.Node(p.Else) && condHasIsNil(pass, p.Cond, key) {
				return true
			}
		case *ast.BlockStmt:
			// An earlier `if X == nil { return }` in the same block
			// dominates everything after it.
			for _, stmt := range p.List {
				if stmt.End() >= cur.Pos() {
					break
				}
				ifs, ok := stmt.(*ast.IfStmt)
				if !ok || !condHasIsNil(pass, ifs.Cond, key) {
					continue
				}
				if terminates(ifs.Body) {
					return true
				}
			}
		case *ast.FuncDecl, *ast.FuncLit:
			// Guards never cross function-literal boundaries: a closure
			// may run long after the check. Except: the common idiom
			// captures a checked local (`if o := ...; o != nil { f :=
			// func() { o.X() } }`), which the IfStmt case above already
			// accepted while walking inside the literal. Stop here.
			return false
		}
	}
	return false
}

// condHasNotNil reports whether cond contains `X != nil` (for key == "",
// any observer/sink-typed X; otherwise exactly key), possibly under `&&`.
func condHasNotNil(pass *Pass, cond ast.Expr, key string) bool {
	return condSearch(pass, cond, key, token.NEQ)
}

// condHasIsNil is the `X == nil` counterpart.
func condHasIsNil(pass *Pass, cond ast.Expr, key string) bool {
	return condSearch(pass, cond, key, token.EQL)
}

func condSearch(pass *Pass, cond ast.Expr, key string, op token.Token) bool {
	switch c := cond.(type) {
	case *ast.ParenExpr:
		return condSearch(pass, c.X, key, op)
	case *ast.BinaryExpr:
		if c.Op == token.LAND || c.Op == token.LOR {
			return condSearch(pass, c.X, key, op) || condSearch(pass, c.Y, key, op)
		}
		if c.Op != op {
			return false
		}
		x, y := c.X, c.Y
		if isNilIdent(y) {
			return matchGuardExpr(pass, x, key)
		}
		if isNilIdent(x) {
			return matchGuardExpr(pass, y, key)
		}
	}
	return false
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

func matchGuardExpr(pass *Pass, e ast.Expr, key string) bool {
	if key != "" {
		return exprKey(e) == key
	}
	t := pass.TypeOf(e)
	return isObserverType(t) || isSinkType(t)
}

// terminates reports whether a block certainly leaves the enclosing
// scope (its last statement returns, branches, panics, or is an
// if/else whose arms all do).
func terminates(b *ast.BlockStmt) bool {
	if b == nil || len(b.List) == 0 {
		return false
	}
	return stmtTerminates(b.List[len(b.List)-1])
}

func stmtTerminates(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return terminates(s)
	case *ast.IfStmt:
		return s.Else != nil && terminates(s.Body) && stmtTerminates(s.Else)
	case *ast.LabeledStmt:
		return stmtTerminates(s.Stmt)
	}
	return false
}
