package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The loader is shared by every test in the package: type-checking the
// standard library from source is the expensive part, and one Loader
// caches it across all fixture and repo loads.
var (
	loaderOnce   sync.Once
	sharedLoader *Loader
	sharedErr    error
)

func testLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		sharedLoader, sharedErr = NewLoader(".")
	})
	if sharedErr != nil {
		t.Fatalf("NewLoader: %v", sharedErr)
	}
	return sharedLoader
}

func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	pkg, err := testLoader(t).Load(filepath.Join("testdata", "src", name), name)
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	return pkg
}

// want expectations live in fixture comments: // want `re` `re` ...
// Each backquoted (or double-quoted) pattern must match exactly one
// diagnostic on the comment's line, and vice versa.
var (
	wantMarker  = regexp.MustCompile(`//\s*want\s+(.+)$`)
	wantPattern = regexp.MustCompile("`([^`]+)`" + `|"((?:[^"\\]|\\.)*)"`)
)

type wantCase struct {
	re      *regexp.Regexp
	matched bool
}

func parseWants(t *testing.T, pkg *Package) map[string][]*wantCase {
	t.Helper()
	wants := map[string][]*wantCase{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantMarker.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, pm := range wantPattern.FindAllStringSubmatch(m[1], -1) {
					pat := pm[1]
					if pat == "" {
						pat = pm[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", key, pat, err)
					}
					wants[key] = append(wants[key], &wantCase{re: re})
				}
			}
		}
	}
	return wants
}

func TestFixtures(t *testing.T) {
	cases := []struct {
		name     string
		analyzer *Analyzer
	}{
		{"locality", Locality},
		{"determinism", Determinism},
		{"obsguard", ObsGuard},
		{"rulecheck", RuleCheck},
		{"allocgate", AllocGate},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pkg := loadFixture(t, tc.name)
			diags := RunAnalyzers(pkg, tc.analyzer)
			wants := parseWants(t, pkg)
			for _, d := range diags {
				key := fmt.Sprintf("%s:%d", d.File, d.Line)
				found := false
				for _, w := range wants[key] {
					if !w.matched && w.re.MatchString(d.Message) {
						w.matched = true
						found = true
						break
					}
				}
				if !found {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for key, ws := range wants {
				for _, w := range ws {
					if !w.matched {
						t.Errorf("%s: want %q never reported", key, w.re)
					}
				}
			}
			if len(diags) < 2 {
				t.Errorf("fixture produced %d findings, want at least 2 demonstrated cases", len(diags))
			}
		})
	}
}

// TestRuleCheckLiveAnnotations guards rulecheck against silently
// becoming a no-op: each execution tier (the CST node and the sharded
// engine) must carry exactly one //rulecheck:step function, and both must
// lint clean. A refactor that detaches the doc comment would otherwise
// skip the check without any finding.
func TestRuleCheckLiveAnnotations(t *testing.T) {
	if testing.Short() {
		t.Skip("loads real packages; skipping in -short")
	}
	l := testLoader(t)
	for _, path := range []string{"ssrmin/internal/cst", "ssrmin/internal/runtime"} {
		dir := filepath.Join(l.Root, filepath.FromSlash(strings.TrimPrefix(path, l.Module+"/")))
		pkg, err := l.Load(dir, path)
		if err != nil {
			t.Fatalf("load %s: %v", path, err)
		}
		if steps := stepFuncs(pkg); len(steps) != 1 {
			t.Errorf("%s has %d //rulecheck:step functions, want exactly 1", path, len(steps))
		}
		for _, d := range RunAnalyzers(pkg, RuleCheck) {
			t.Errorf("%s: unexpected diagnostic: %s", path, d)
		}
	}
}

// TestRepoPackagesClean runs every analyzer over its declared target
// packages in the real tree and demands silence: the audited state of the
// repository is itself a regression test.
func TestRepoPackagesClean(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide lint is covered by make lint; skipping in -short")
	}
	l := testLoader(t)
	pkgs := map[string]*Package{}
	for _, a := range All() {
		for _, path := range a.Packages {
			pkg, ok := pkgs[path]
			if !ok {
				dir := filepath.Join(l.Root, filepath.FromSlash(strings.TrimPrefix(path, l.Module+"/")))
				var err error
				pkg, err = l.Load(dir, path)
				if err != nil {
					t.Fatalf("load %s: %v", path, err)
				}
				pkgs[path] = pkg
			}
			for _, d := range RunAnalyzers(pkg, a) {
				t.Errorf("%s: %s", path, d)
			}
		}
	}
}

func TestIgnoreParsing(t *testing.T) {
	src := `package p
//lint:ignore determinism
var a = 1
//lint:ignore determinism summed, order-free
var b = 2
//lint:ignore obsguard,locality covers two analyzers
var c = 3
//lint:ignore * blanket waiver with reason
var d = 4
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &Package{Fset: fset, Files: []*ast.File{f}}
	sup := collectIgnores(pkg)
	at := func(analyzer string, line int) bool {
		return sup.suppressed(Diagnostic{Analyzer: analyzer, File: "p.go", Line: line})
	}
	if at("determinism", 3) {
		t.Error("a bare //lint:ignore without a reason must suppress nothing")
	}
	if !at("determinism", 5) {
		t.Error("ignore with reason must cover the following line")
	}
	if !at("determinism", 4) {
		t.Error("ignore with reason must cover its own line")
	}
	if !at("obsguard", 7) || !at("locality", 7) {
		t.Error("comma-separated analyzer list must cover both names")
	}
	if at("determinism", 7) {
		t.Error("ignore must not leak to unnamed analyzers")
	}
	if !at("allocgate", 9) {
		t.Error("the * wildcard must cover every analyzer")
	}
}

// TestIgnoreEndOfLine covers the end-of-line waiver form: the comment
// trails the flagged statement instead of sitting on its own line.
func TestIgnoreEndOfLine(t *testing.T) {
	src := `package p
var a = 1 //lint:ignore determinism trailing waiver with reason
var b = 2 //lint:ignore obsguard,locality,rulecheck trailing multi-analyzer list
var c = 3 //lint:ignore determinism
var d = 4
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &Package{Fset: fset, Files: []*ast.File{f}}
	sup := collectIgnores(pkg)
	at := func(analyzer string, line int) bool {
		return sup.suppressed(Diagnostic{Analyzer: analyzer, File: "p.go", Line: line})
	}
	if !at("determinism", 2) {
		t.Error("end-of-line waiver must cover its own line")
	}
	if !at("determinism", 3) {
		t.Error("end-of-line waiver must cover the following line, like the own-line form")
	}
	if !at("obsguard", 3) || !at("locality", 3) || !at("rulecheck", 3) {
		t.Error("end-of-line multi-analyzer list must cover every named analyzer")
	}
	if at("obsguard", 2) {
		t.Error("end-of-line waiver must not reach the preceding line")
	}
	if at("determinism", 4) {
		t.Error("a reasonless end-of-line waiver must suppress nothing")
	}
	if at("determinism", 5) {
		t.Error("an end-of-line waiver must not extend beyond the following line")
	}
}

// TestIgnoreInTestFiles pins that waiver semantics apply to whatever
// files a Package carries, including _test.go sources: an analyzer run
// over a package with test files must honor their waivers identically.
func TestIgnoreInTestFiles(t *testing.T) {
	lib := `package p
var a = 1
`
	test := `package p
//lint:ignore determinism seeded test fixture, order-free
var fixture = 2
var naked = 3 //lint:ignore locality,obsguard test shim reaches across the ring
var bare = 4
`
	fset := token.NewFileSet()
	libF, err := parser.ParseFile(fset, "p.go", lib, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	testF, err := parser.ParseFile(fset, "p_test.go", test, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &Package{Fset: fset, Files: []*ast.File{libF, testF}}
	sup := collectIgnores(pkg)
	at := func(analyzer, file string, line int) bool {
		return sup.suppressed(Diagnostic{Analyzer: analyzer, File: file, Line: line})
	}
	if !at("determinism", "p_test.go", 3) || !at("determinism", "p_test.go", 2) {
		t.Error("own-line waiver in a _test.go file must cover itself and the next line")
	}
	if !at("locality", "p_test.go", 4) || !at("obsguard", "p_test.go", 4) {
		t.Error("end-of-line multi-analyzer waiver in a _test.go file must apply")
	}
	if at("determinism", "p_test.go", 5) {
		t.Error("waiver must not leak to unrelated lines of the test file")
	}
	if at("determinism", "p.go", 2) || at("determinism", "p.go", 3) {
		t.Error("a test-file waiver must not suppress findings in sibling files")
	}
}

// TestWaiversNameKnownAnalyzers keeps every //lint:ignore in the module
// pointing at a registered analyzer (or "*"), so a waiver cannot outlive
// the analyzer it silences.
func TestWaiversNameKnownAnalyzers(t *testing.T) {
	root := testLoader(t).Root
	fset := token.NewFileSet()
	waivers := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names, _, ok := parseWaiver(c.Text)
				if !ok {
					continue
				}
				waivers++
				for _, name := range names {
					if name != "*" && Lookup(name) == nil {
						t.Errorf("%s: waiver names unknown analyzer %q", fset.Position(c.Pos()), name)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if waivers == 0 {
		t.Error("found no //lint:ignore waivers; the walk is not reaching the module's sources")
	}
}

func TestDiagnosticJSONAndString(t *testing.T) {
	d := Diagnostic{
		Analyzer: "obsguard",
		File:     "internal/msgnet/msgnet.go",
		Line:     12,
		Col:      3,
		Message:  "unguarded call",
	}
	blob, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"analyzer":"obsguard","file":"internal/msgnet/msgnet.go","line":12,"col":3,"message":"unguarded call"}`
	if string(blob) != want {
		t.Errorf("JSON = %s, want %s", blob, want)
	}
	if got := d.String(); got != "internal/msgnet/msgnet.go:12:3: unguarded call [obsguard]" {
		t.Errorf("String = %q", got)
	}
}

func TestRegistry(t *testing.T) {
	if len(All()) != 5 {
		t.Fatalf("All() = %d analyzers, want 5", len(All()))
	}
	seen := map[string]bool{}
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v incompletely declared", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if Lookup(a.Name) != a {
			t.Errorf("Lookup(%q) did not round-trip", a.Name)
		}
		if len(a.Packages) == 0 {
			t.Errorf("%s declares no target packages", a.Name)
		}
		for _, p := range a.Packages {
			if !a.AppliesTo(p) {
				t.Errorf("%s.AppliesTo(%q) = false for its own target", a.Name, p)
			}
		}
		if a.AppliesTo("ssrmin/internal/doesnotexist") {
			t.Errorf("%s applies to an undeclared package", a.Name)
		}
	}
	if Lookup("nope") != nil {
		t.Error("Lookup of unknown analyzer must return nil")
	}
}
