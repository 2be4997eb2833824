// allocgate: a static gate on hot-path heap allocations. Functions
// annotated //allocgate:hot (the msgnet arena, the sharded engine's event
// loop, the cst fast paths, the bitslice kernels, the state tier's step
// and the daemons' Select) are the ones whose benchmarks claim
// 0 allocs/op; the analyzer runs the real compiler's escape analysis
// (go build -gcflags=-m) over the module and flags any "escapes to heap"
// or "moved to heap" decision landing inside an annotated function's
// body. A refactor that silently introduces an allocation then fails
// `make lint` instead of waiting for someone to re-read the bench
// deltas.
//
// The escape output is produced once per (module root, build target) and
// shared across packages. Generic functions only get escape decisions
// when something instantiates them, so module packages are analyzed via
// a whole-module `go build ./...` (the cmd binaries instantiate every
// engine); fixture packages under testdata — excluded from ./... by the
// go tool — are built by their explicit directory.
//
// Findings anchor at the allocating line, so a deliberate allocation is
// waived with //lint:ignore allocgate on that line, not on the function.
// Decisions inside the arguments of a panic call are skipped: a panic
// ends the run, so its boxed message is never on the steady-state path.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
)

// AllocGate is the escape-analysis hot-path gate.
var AllocGate = &Analyzer{
	Name: "allocgate",
	Doc:  "//allocgate:hot functions must not gain heap allocations (compiler escape analysis as a lint gate)",
	Packages: []string{
		"ssrmin/internal/evq",
		"ssrmin/internal/msgnet",
		"ssrmin/internal/cst",
		"ssrmin/internal/runtime",
		"ssrmin/internal/bitslice",
		"ssrmin/internal/statemodel",
		"ssrmin/internal/daemon",
		"ssrmin/internal/check",
	},
	Run: runAllocGate,
}

var allocHotRe = regexp.MustCompile(`^//allocgate:hot$`)

// escLine is one escape decision of the compiler.
type escLine struct {
	file      string // absolute path
	line, col int
	msg       string
}

var (
	escMu    sync.Mutex
	escCache = map[string][]escLine{}
	escFail  = map[string]error{}
)

// escapeOutput runs go build -gcflags=-m for target under root, memoized
// for the process lifetime (the lint binary analyzes each target once).
func escapeOutput(root, target string) ([]escLine, error) {
	key := root + "\x00" + target
	escMu.Lock()
	defer escMu.Unlock()
	if err, ok := escFail[key]; ok {
		return nil, err
	}
	if lines, ok := escCache[key]; ok {
		return lines, nil
	}
	lines, err := runEscapeBuild(root, target)
	if err != nil {
		escFail[key] = err
		return nil, err
	}
	escCache[key] = lines
	return lines, nil
}

var escLineRe = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

func runEscapeBuild(root, target string) ([]escLine, error) {
	cmd := exec.Command("go", "build", "-gcflags=-m", target)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m %s: %v\n%s", target, err, trimOutput(out))
	}
	var lines []escLine
	seen := map[string]bool{}
	for _, raw := range strings.Split(string(out), "\n") {
		m := escLineRe.FindStringSubmatch(raw)
		if m == nil {
			continue
		}
		msg := m[4]
		if !strings.Contains(msg, "escapes to heap") && !strings.Contains(msg, "moved to heap") {
			continue
		}
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(root, file)
		}
		var line, col int
		fmt.Sscanf(m[2]+" "+m[3], "%d %d", &line, &col)
		key := fmt.Sprintf("%s:%d:%d:%s", file, line, col, msg)
		if seen[key] {
			continue
		}
		seen[key] = true
		lines = append(lines, escLine{file: file, line: line, col: col, msg: msg})
	}
	return lines, nil
}

func trimOutput(out []byte) string {
	s := string(out)
	if len(s) > 2000 {
		s = s[:2000] + "…"
	}
	return s
}

func runAllocGate(pass *Pass) {
	var hot []*ast.FuncDecl
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if allocHotRe.MatchString(strings.TrimSpace(c.Text)) {
					hot = append(hot, fd)
					break
				}
			}
		}
	}
	if len(hot) == 0 {
		return
	}
	l := pass.Pkg.loader
	if l == nil {
		pass.Reportf(hot[0].Pos(), "allocgate: package %s has no module loader; cannot run escape analysis", pass.Pkg.Path)
		return
	}
	target, err := allocTarget(l, pass.Pkg)
	if err != nil {
		pass.Reportf(hot[0].Pos(), "allocgate: %v", err)
		return
	}
	escapes, err := escapeOutput(l.Root, target)
	if err != nil {
		pass.Reportf(hot[0].Pos(), "allocgate: %v", err)
		return
	}

	fset := pass.Pkg.Fset
	for _, decl := range hot {
		start := fset.Position(decl.Pos())
		end := fset.Position(decl.End())
		file, err := filepath.Abs(start.Filename)
		if err != nil {
			file = start.Filename
		}
		tf := fset.File(decl.Pos())
		for _, esc := range escapes {
			if esc.file != file || esc.line < start.Line || esc.line > end.Line {
				continue
			}
			line := tf.LineStart(esc.line)
			if insidePanic(pass, decl, line+token.Pos(esc.col-1)) {
				continue
			}
			pass.Reportf(line, "allocgate: hot function %s allocates on the heap: %s", decl.Name.Name, esc.msg)
		}
	}
}

// insidePanic reports whether pos lies between the parentheses of a call
// to the builtin panic in decl.
func insidePanic(pass *Pass, decl *ast.FuncDecl, pos token.Pos) bool {
	found := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && call.Lparen < pos && pos < call.Rparen {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				_, found = pass.ObjectOf(id).(*types.Builtin)
			}
		}
		return !found
	})
	return found
}

// allocTarget picks the build target for pkg: the whole module for
// module packages (so cmd binaries instantiate the generic hot paths),
// the explicit directory for fixture packages outside the import graph.
func allocTarget(l *Loader, pkg *Package) (string, error) {
	if pkg.Path == l.Module || strings.HasPrefix(pkg.Path, l.Module+"/") {
		return "./...", nil
	}
	abs, err := filepath.Abs(pkg.Dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.Root, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("package dir %s is outside module root %s", pkg.Dir, l.Root)
	}
	return "./" + filepath.ToSlash(rel), nil
}
