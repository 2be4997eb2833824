// Package lint is a small static-analysis framework built entirely on the
// standard library (go/parser, go/ast, go/types, go/importer — no
// golang.org/x/tools), plus the domain analyzers that make this
// repository's model discipline machine-checked:
//
//   - locality: in algorithm packages, guards are side-effect-free and
//     commands never write a neighbor's view — the state-reading model of
//     Section 2.1, which every lemma of the paper assumes.
//   - determinism: trace/report/simulation packages may not iterate maps
//     into ordered output, read wall-clock time, or draw from the global
//     math/rand — seeded executions must stay bit-identical.
//   - obsguard: hot-path calls on observer/sink fields are dominated by
//     nil checks and allocate nothing on the no-observer path, keeping the
//     instrumentation overhead bar (<5%, BENCH_obs.json) structural.
//   - rulecheck: execution-tier steps evaluate one EnabledRule and Apply
//     it to the same view — Algorithm 4's composite atomicity.
//   - allocgate: functions marked //allocgate:hot gain no heap allocation,
//     judged by the compiler's own escape analysis.
//
// Properties whose analyzers were retired because a test, the race
// detector or allocgate already guards them are listed in docs/LINT.md.
//
// The framework deliberately mirrors the shape of golang.org/x/tools'
// go/analysis (Analyzer, Pass, Reportf, "// want" fixture tests) so the
// analyzers could migrate there if the repository ever took the
// dependency, but it loads and type-checks packages itself: module-local
// imports resolve straight from the source tree, everything else through
// the stdlib source importer.
package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned and attributed to an analyzer.
type Diagnostic struct {
	// Analyzer is the name of the analyzer that produced the finding.
	Analyzer string `json:"analyzer"`
	// File is the path of the offending file as given to the loader.
	File string `json:"file"`
	// Line and Col are 1-based.
	Line int `json:"line"`
	Col  int `json:"col"`
	// Message describes the violation.
	Message string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.File, d.Line, d.Col, d.Message, d.Analyzer)
}

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name is the analyzer identifier, used in output and in
	// //lint:ignore comments.
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// Packages lists the import paths the analyzer applies to when the
	// runner selects analyzers automatically; empty means every package.
	Packages []string
	// Run inspects pass.Pkg and reports findings via pass.Reportf.
	Run func(pass *Pass)
}

// AppliesTo reports whether the analyzer covers the given import path.
func (a *Analyzer) AppliesTo(path string) bool {
	if len(a.Packages) == 0 {
		return true
	}
	for _, p := range a.Packages {
		if p == path {
			return true
		}
	}
	return false
}

// All returns the analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{Locality, Determinism, ObsGuard, RuleCheck, AllocGate}
}

// Lookup resolves an analyzer by name.
func Lookup(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Package is a parsed and type-checked package ready for analysis.
type Package struct {
	// Path is the import path (or the bare fixture name for testdata).
	Path string
	// Dir is the directory the files were read from.
	Dir string
	// Fset positions all files.
	Fset *token.FileSet
	// Files are the parsed non-test files, sorted by file name.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info carries the type-checker's fact tables.
	Info *types.Info

	loader  *Loader
	parents map[ast.Node]ast.Node
}

// Pass is one (analyzer, package) run.
type Pass struct {
	// Analyzer is the running analyzer.
	Analyzer *Analyzer
	// Pkg is the package under analysis.
	Pkg *Package

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the static type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// ObjectOf resolves an identifier to its object, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object { return p.Pkg.Info.ObjectOf(id) }

// Parent returns the syntactic parent of n within its file, or nil.
func (p *Pass) Parent(n ast.Node) ast.Node { return p.Pkg.parents[n] }

// RunAnalyzers executes the given analyzers on pkg and returns the merged,
// suppression-filtered, position-sorted findings.
func RunAnalyzers(pkg *Package, analyzers ...*Analyzer) []Diagnostic {
	sup := collectIgnores(pkg)
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Pkg: pkg}
		a.Run(pass)
		for _, d := range pass.diags {
			if !sup.suppressed(d) {
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		if out[i].Col != out[j].Col {
			return out[i].Col < out[j].Col
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}

// ---------------------------------------------------------------------------
// //lint:ignore suppressions
// ---------------------------------------------------------------------------

var ignoreRe = regexp.MustCompile(`^//lint:ignore\s+(\S+)\s+(.+)$`)

// parseWaiver parses one //lint:ignore comment into the waived analyzer
// names (a comma list, "*" waives every analyzer) and the mandatory
// reason. ok is false for comments that are not waivers or that omit the
// reason — those suppress nothing. This is the single entry point the
// suppression pass and the FuzzWaiverParse target share.
func parseWaiver(text string) (analyzers []string, reason string, ok bool) {
	m := ignoreRe.FindStringSubmatch(text)
	if m == nil || strings.TrimSpace(m[2]) == "" {
		return nil, "", false
	}
	for _, name := range strings.Split(m[1], ",") {
		if name != "" {
			analyzers = append(analyzers, name)
		}
	}
	if len(analyzers) == 0 {
		return nil, "", false
	}
	return analyzers, strings.TrimSpace(m[2]), true
}

type ignoreKey struct {
	file string
	line int
	name string // analyzer name or "*"
}

type suppressions map[ignoreKey]bool

// collectIgnores gathers //lint:ignore <analyzer> <reason> comments. A
// suppression covers findings of the named analyzer (or every analyzer,
// for "*") on the comment's own line and on the following line, so both
//
//	x := unsorted() //lint:ignore determinism summed, order-free
//
// and
//
//	//lint:ignore determinism summed, order-free
//	x := unsorted()
//
// work. The reason is mandatory: a bare //lint:ignore suppresses nothing.
func collectIgnores(pkg *Package) suppressions {
	sup := suppressions{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names, _, ok := parseWaiver(c.Text)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, name := range names {
					sup[ignoreKey{pos.Filename, pos.Line, name}] = true
					sup[ignoreKey{pos.Filename, pos.Line + 1, name}] = true
				}
			}
		}
	}
	return sup
}

func (s suppressions) suppressed(d Diagnostic) bool {
	return s[ignoreKey{d.File, d.Line, d.Analyzer}] || s[ignoreKey{d.File, d.Line, "*"}]
}

// ---------------------------------------------------------------------------
// Loading
// ---------------------------------------------------------------------------

// Loader parses and type-checks packages of one module, resolving
// module-local imports from source and delegating the rest (the standard
// library) to the stdlib source importer. Loaded dependencies are cached,
// so checking all analyzer targets shares one statemodel/obs checking
// pass.
type Loader struct {
	// Root is the absolute module root directory.
	Root string
	// Module is the module path from go.mod.
	Module string
	// Fset positions every file loaded through this loader.
	Fset *token.FileSet

	std   types.ImporterFrom
	cache map[string]*types.Package
	// pkgs caches the full Package (AST, type info, parent links) of
	// every module-local package loaded through this loader — both
	// analysis targets and their module-local imports.
	pkgs map[string]*Package
}

// NewLoader creates a loader for the module rooted at root (found by
// walking up from dir to the nearest go.mod when root is a subdirectory).
func NewLoader(dir string) (*Loader, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod above %s", dir)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	module := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			module = strings.TrimSpace(strings.Trim(strings.TrimSpace(rest), `"`))
			break
		}
	}
	if module == "" {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	l := &Loader{Root: root, Module: module, Fset: fset,
		cache: map[string]*types.Package{}, pkgs: map[string]*Package{}}
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer does not implement ImporterFrom")
	}
	l.std = std
	return l, nil
}

// ImportPath derives the module import path of dir ("." → module root).
func (l *Loader) ImportPath(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.Root, abs)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.Module, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", dir, l.Root)
	}
	return l.Module + "/" + filepath.ToSlash(rel), nil
}

// Load parses and type-checks the package in dir under the given import
// path. Test files are skipped; comments are kept (suppressions and
// fixture expectations live there). Loads are cached by import path, so
// a package reached both as an analysis target and as a dependency is
// parsed and checked once and shares one object identity space.
func (l *Loader) Load(dir, path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	pkg := &Package{
		Path:   path,
		Dir:    dir,
		Fset:   l.Fset,
		Files:  files,
		Types:  tpkg,
		Info:   info,
		loader: l,
	}
	pkg.parents = map[ast.Node]ast.Node{}
	for _, f := range files {
		buildParents(f, pkg.parents)
	}
	l.pkgs[path] = pkg
	l.cache[path] = tpkg
	return pkg, nil
}

// LoadDir loads the package in dir with its import path derived from the
// module layout.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	path, err := l.ImportPath(dir)
	if err != nil {
		return nil, err
	}
	return l.Load(dir, path)
}

func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.Root, 0)
}

// ImportFrom implements types.ImporterFrom: module-local paths load as
// full packages through Load; everything else goes to the stdlib source
// importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := l.cache[path]; ok {
		return p, nil
	}
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		sub := strings.TrimPrefix(strings.TrimPrefix(path, l.Module), "/")
		pdir := filepath.Join(l.Root, filepath.FromSlash(sub))
		pkg, err := l.Load(pdir, path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	pkg, err := l.std.ImportFrom(path, dir, mode)
	if err == nil {
		l.cache[path] = pkg
	}
	return pkg, err
}

// ---------------------------------------------------------------------------
// Shared AST/type helpers used by the analyzers
// ---------------------------------------------------------------------------

// buildParents records the syntactic parent of every node under root.
func buildParents(root ast.Node, parents map[ast.Node]ast.Node) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
}

// namedFrom unwraps pointers and returns the named type of t (looking
// through instantiated generics), or nil.
func namedFrom(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// isNamed reports whether t (possibly behind a pointer) is the named type
// pkgSuffix.name, matching the defining package by import-path suffix so
// the check works for both "ssrmin/internal/obs" and fixture loads.
func isNamed(t types.Type, pkgSuffix, name string) bool {
	n := namedFrom(t)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	if n.Obj().Name() != name {
		return false
	}
	p := n.Obj().Pkg().Path()
	return p == pkgSuffix || strings.HasSuffix(p, "/"+pkgSuffix) || strings.HasSuffix(p, pkgSuffix)
}

// exprKey renders a stable textual key for an expression (identifiers and
// selector chains); it returns "" for expressions too dynamic to compare.
func exprKey(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := exprKey(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprKey(e.X)
	case *ast.IndexExpr:
		base := exprKey(e.X)
		if base == "" {
			return ""
		}
		if lit, ok := e.Index.(*ast.BasicLit); ok {
			return base + "[" + lit.Value + "]"
		}
		return ""
	}
	return ""
}

// pkgPathOf returns the import path of the package an identifier's object
// belongs to, or "".
func pkgPathOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// isPkgFunc reports whether call invokes the package-level function
// path.name (path matched exactly).
func isPkgFunc(info *types.Info, call *ast.CallExpr, path, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := info.ObjectOf(sel.Sel)
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	return fn.Name() == name && pkgPathOf(fn) == path
}

// enclosingFunc walks up the parent chain to the enclosing function
// declaration or literal and returns its body.
func enclosingFunc(parents map[ast.Node]ast.Node, n ast.Node) *ast.BlockStmt {
	for cur := n; cur != nil; cur = parents[cur] {
		switch f := cur.(type) {
		case *ast.FuncDecl:
			return f.Body
		case *ast.FuncLit:
			return f.Body
		}
	}
	return nil
}
