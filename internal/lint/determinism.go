package lint

import (
	"go/ast"
	"go/types"
)

// Determinism enforces bit-identical seeded executions in the packages
// whose output is pinned by goldens (trace tables, reports, the
// discrete-event network, the model checker): no map iteration feeding
// ordered output, no wall-clock reads, no draws from the global math/rand.
//
// Map iteration is only flagged when the loop body is order-sensitive —
// it appends, writes, emits, sends, or builds strings. Pure reductions
// (counting, summing, set membership) commute and stay legal; anything
// else must sort its keys first or carry an explicit
// //lint:ignore determinism <reason>.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "no map-order, wall-clock, or global-rand nondeterminism in seeded/golden packages",
	Packages: []string{
		"ssrmin/internal/statemodel",
		"ssrmin/internal/trace",
		"ssrmin/internal/report",
		"ssrmin/internal/stats",
		"ssrmin/internal/evq",
		"ssrmin/internal/msgnet",
		"ssrmin/internal/check",
	},
	Run: runDeterminism,
}

func runDeterminism(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			case *ast.CallExpr:
				if isPkgFunc(info, n, "time", "Now") {
					pass.Reportf(n.Pos(),
						"time.Now in a deterministic package: model time must come from the simulation clock or the step index")
				}
			case *ast.SelectorExpr:
				checkGlobalRand(pass, n)
			}
			return true
		})
	}
}

// globalRandAllowed lists the math/rand package-level identifiers that do
// not touch the shared global source.
var globalRandAllowed = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
	"Rand":      true, // the type, in declarations
	"Source":    true,
	"Source64":  true,
}

// checkGlobalRand flags uses of math/rand's global-source functions
// (rand.Intn, rand.Float64, rand.Seed, ...): every draw must come from a
// seed-threaded *rand.Rand.
func checkGlobalRand(pass *Pass, sel *ast.SelectorExpr) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pkgName, ok := pass.ObjectOf(id).(*types.PkgName)
	if !ok || pkgName.Imported().Path() != "math/rand" {
		return
	}
	if fn, ok := pass.ObjectOf(sel.Sel).(*types.Func); ok && !globalRandAllowed[fn.Name()] {
		pass.Reportf(sel.Pos(),
			"global math/rand.%s uses the shared unseeded source; thread a seeded *rand.Rand instead",
			sel.Sel.Name)
	}
}

// checkMapRange flags `range m` over a map when the body is
// order-sensitive.
func checkMapRange(pass *Pass, rng *ast.RangeStmt) {
	t := pass.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	reason, sensitive := orderSensitive(pass, rng.Body)
	if !sensitive {
		return
	}
	if reason == "append" && appendTargetsSorted(pass, rng) {
		// The collect-keys-then-sort idiom: every slice appended to in the
		// loop is passed to a sort.*/slices.Sort* call after it, which
		// erases the iteration order.
		return
	}
	pass.Reportf(rng.Pos(),
		"iteration over map feeds ordered output (%s); map order is random per execution — sort the keys first",
		reason)
}

// appendTargetsSorted reports whether every slice appended to inside rng's
// body is subsequently handed to a sort call in the enclosing function.
func appendTargetsSorted(pass *Pass, rng *ast.RangeStmt) bool {
	info := pass.Pkg.Info
	targets := map[string]bool{}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "append" {
			return true
		}
		if _, isBuiltin := info.ObjectOf(id).(*types.Builtin); !isBuiltin {
			return true
		}
		key := exprKey(call.Args[0])
		if key == "" {
			key = "\x00unsortable"
		}
		targets[key] = false
		return true
	})
	if len(targets) == 0 {
		return false
	}
	fn := enclosingFunc(pass.Pkg.parents, rng)
	if fn == nil {
		return false
	}
	ast.Inspect(fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fobj, ok := info.ObjectOf(sel.Sel).(*types.Func)
		if !ok {
			return true
		}
		if p := pkgPathOf(fobj); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if k := exprKey(arg); k != "" {
				if _, tracked := targets[k]; tracked {
					targets[k] = true
				}
			}
		}
		return true
	})
	for _, sorted := range targets {
		if !sorted {
			return false
		}
	}
	return true
}

// orderSensitive reports whether executing body under two different
// iteration orders can produce different observable results, with a short
// description of the first order-sensitive construct found.
func orderSensitive(pass *Pass, body *ast.BlockStmt) (string, bool) {
	info := pass.Pkg.Info
	reason := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "append" {
				if _, isBuiltin := info.ObjectOf(id).(*types.Builtin); isBuiltin {
					reason = "append"
					return false
				}
			}
			if name, ok := orderSensitiveCallee(info, n); ok {
				reason = name
				return false
			}
		case *ast.SendStmt:
			reason = "channel send"
			return false
		case *ast.AssignStmt:
			// s += x on a string builds order-dependent output.
			if n.Tok.String() == "+=" && len(n.Lhs) == 1 {
				if b, ok := info.TypeOf(n.Lhs[0]).Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
					reason = "string concatenation"
					return false
				}
			}
		}
		return true
	})
	return reason, reason != ""
}

// orderSensitiveCallee recognizes calls that commit the iteration order to
// an ordered medium: writers, printers, emitters, table/trace builders.
func orderSensitiveCallee(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := info.ObjectOf(sel.Sel).(*types.Func)
	if !ok {
		return "", false
	}
	name := fn.Name()
	switch name {
	case "Write", "WriteString", "WriteByte", "WriteRune", "Emit",
		"AddRow", "Record", "Append", "Push", "Enqueue":
		return name, true
	}
	if pkgPathOf(fn) == "fmt" {
		switch name {
		case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
			return "fmt." + name, true
		}
	}
	return "", false
}
