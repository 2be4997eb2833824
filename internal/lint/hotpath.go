package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Hotpath enforces the zero-allocation discipline of the message-passing
// tier (the packages the per-event cost model of EXPERIMENTS.md is
// measured on). Two classes of regression sneak back in most easily and
// are flagged here:
//
//   - A struct field typed `any` / `interface{}`. Boxing the payload
//     costs one heap allocation per scheduled event; payloads must stay
//     concrete (usually a type parameter), so an empty-interface field
//     in a hot-path package is a design regression, not a style nit.
//
//   - A per-call heap allocation — new(T), &CompositeLit, or make(map)
//     — outside a constructor. Constructors (functions whose name starts
//     with "New") run once per simulation and may allocate; everything
//     else in these packages can sit on a per-event path, where an
//     allocation multiplied by millions of events is the exact cost the
//     arena engine exists to remove.
//
// Cold paths that genuinely need an allocation (setup helpers, the SPSC
// overflow spill, test-only validators) carry an explicit
// //lint:ignore hotpath <reason> waiver so every exception is visible
// and justified in the diff.
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc:  "no any-typed fields or per-event allocations in hot-path packages",
	Packages: []string{
		"ssrmin/internal/msgnet",
		"ssrmin/internal/cst",
		"ssrmin/internal/runtime",
		"ssrmin/internal/bitslice",
	},
	Run: runHotpath,
}

func runHotpath(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				checkBoxedFields(pass, n)
			case *ast.FuncDecl:
				if n.Body == nil || isConstructor(n) {
					return false
				}
				checkAllocations(pass, n)
				return false
			}
			return true
		})
	}
}

// isConstructor reports whether the declaration is a New*-prefixed
// function: the one shape allowed to allocate, because it runs once per
// simulation rather than once per event.
func isConstructor(fn *ast.FuncDecl) bool {
	return strings.HasPrefix(fn.Name.Name, "New")
}

// checkBoxedFields flags struct fields whose type is the empty
// interface. Type parameters constrained by `any` are not fields and
// never reach here.
func checkBoxedFields(pass *Pass, st *ast.StructType) {
	for _, field := range st.Fields.List {
		t := pass.TypeOf(field.Type)
		if t == nil {
			continue
		}
		// A type parameter constrained by `any` is the unboxed idiom this
		// analyzer exists to protect, not a violation: event[P]'s payload
		// field is concrete at every instantiation.
		if _, isTypeParam := t.(*types.TypeParam); isTypeParam {
			continue
		}
		iface, ok := t.Underlying().(*types.Interface)
		if !ok || !iface.Empty() {
			continue
		}
		// Name the field(s) in the diagnostic; embedded fields have no
		// names and fall back to the type's own text position.
		if len(field.Names) == 0 {
			pass.Reportf(field.Type.Pos(),
				"hot-path struct embeds an empty interface; payloads must stay unboxed")
			continue
		}
		for _, name := range field.Names {
			pass.Reportf(name.Pos(),
				"hot-path struct field %s is typed any; use a concrete type or a type parameter",
				name.Name)
		}
	}
}

// checkAllocations flags per-call heap allocations inside fn's body:
// new(T), &CompositeLit, and make(map). Growing a slice with append and
// make([]T, n) are deliberately exempt — they amortize, the flagged
// forms do not. Function literals inside fn are scanned too: a closure
// on a hot path allocates on the same path.
func checkAllocations(pass *Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op.String() != "&" {
				return true
			}
			if _, ok := n.X.(*ast.CompositeLit); ok {
				pass.Reportf(n.Pos(),
					"%s allocates a composite literal per call; hoist it into a constructor or reuse a slot",
					fn.Name.Name)
			}
		case *ast.CallExpr:
			id, ok := n.Fun.(*ast.Ident)
			if !ok {
				return true
			}
			// Only the predeclared builtins count, not local shadows.
			if obj := pass.ObjectOf(id); obj != nil {
				if _, isBuiltin := obj.(*types.Builtin); !isBuiltin {
					return true
				}
			}
			switch id.Name {
			case "new":
				pass.Reportf(n.Pos(),
					"%s calls new() per invocation; hot-path events live in the arena, not the heap",
					fn.Name.Name)
			case "make":
				if len(n.Args) == 0 {
					return true
				}
				t := pass.TypeOf(n.Args[0])
				if t == nil {
					return true
				}
				if _, ok := t.Underlying().(*types.Map); ok {
					pass.Reportf(n.Pos(),
						"%s builds a map per invocation; precompute it or index by slot",
						fn.Name.Name)
				}
			}
		}
		return true
	})
}
