// rulecheck: the composite-atomicity shape of execution-tier steps.
//
// A function annotated in its doc comment with
//
//	//rulecheck:step
//
// is an execution-tier step: structurally it must derive the rule from
// exactly one EnabledRule call on a view, guard every Apply with that
// same (view, rule) pair, and assign the result to a .state field — the
// composite-atomicity shape of Algorithm 4 that keeps the live tiers
// faithful to the state model.
//
// The rules themselves are guarded by tests, not by this analyzer:
// internal/spec's conformance suite checks the source against the paper,
// and internal/check's TestTablesMatchDirect checks the compiled tables
// and the guard helpers against the source on every view.
package lint

import (
	"go/ast"
	"strings"
)

// RuleCheck is the step-shape analyzer.
var RuleCheck = &Analyzer{
	Name: "rulecheck",
	Doc:  "//rulecheck:step functions must evaluate one EnabledRule and Apply it to the same view, assigning .state",
	Packages: []string{
		"ssrmin/internal/cst",
		"ssrmin/internal/runtime",
	},
	Run: runRuleCheck,
}

// stepFuncs returns the package's //rulecheck:step functions.
func stepFuncs(pkg *Package) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if strings.TrimSpace(c.Text) == "//rulecheck:step" {
					out = append(out, fd)
					break
				}
			}
		}
	}
	return out
}

func runRuleCheck(pass *Pass) {
	for _, fd := range stepFuncs(pass.Pkg) {
		checkStepDiscipline(pass, fd)
	}
}

// checkStepDiscipline structurally verifies an execution-tier step
// function: exactly one EnabledRule call whose result is bound to a rule
// variable, and every Apply call uses that same (view, rule) pair with
// the result assigned to a .state field.
func checkStepDiscipline(pass *Pass, decl *ast.FuncDecl) {
	if decl.Body == nil {
		return
	}
	var enabledCalls, applyCalls []*ast.CallExpr
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "EnabledRule":
				enabledCalls = append(enabledCalls, call)
			case "Apply":
				applyCalls = append(applyCalls, call)
			}
		}
		return true
	})
	if len(enabledCalls) != 1 {
		pass.Reportf(decl.Pos(), "rulecheck: step function %s has %d EnabledRule calls, want exactly 1 (one rule evaluation per step)",
			decl.Name.Name, len(enabledCalls))
		return
	}
	en := enabledCalls[0]
	if len(en.Args) != 1 {
		pass.Reportf(en.Pos(), "rulecheck: step function %s: EnabledRule must take the view", decl.Name.Name)
		return
	}
	viewKey := exprKey(en.Args[0])
	ruleVar := ""
	if assign, ok := pass.Parent(en).(*ast.AssignStmt); ok && len(assign.Lhs) == 1 && len(assign.Rhs) == 1 {
		if id, ok := assign.Lhs[0].(*ast.Ident); ok {
			ruleVar = id.Name
		}
	}
	if viewKey == "" || ruleVar == "" {
		pass.Reportf(en.Pos(), "rulecheck: step function %s must bind `rule := alg.EnabledRule(view)` to a variable", decl.Name.Name)
		return
	}
	if len(applyCalls) == 0 {
		pass.Reportf(decl.Pos(), "rulecheck: step function %s never calls Apply — the enabled rule is dropped", decl.Name.Name)
		return
	}
	for _, ap := range applyCalls {
		if len(ap.Args) != 2 || exprKey(ap.Args[0]) != viewKey || exprKey(ap.Args[1]) != ruleVar {
			pass.Reportf(ap.Pos(), "rulecheck: step function %s: Apply must be called with the same (%s, %s) pair EnabledRule evaluated — applying a rule to a different view breaks composite atomicity",
				decl.Name.Name, viewKey, ruleVar)
			continue
		}
		assign, ok := pass.Parent(ap).(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != 1 || !strings.HasSuffix(exprKey(assign.Lhs[0]), ".state") {
			pass.Reportf(ap.Pos(), "rulecheck: step function %s: Apply's result must be assigned to the node's .state field", decl.Name.Name)
		}
	}
}
