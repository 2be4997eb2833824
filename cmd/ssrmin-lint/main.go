// Command ssrmin-lint runs the repository's stdlib-only analyzer suite
// (internal/lint: locality, determinism, obsguard, rulecheck and
// allocgate) over the packages named on the command line and exits 1
// when any analyzer reports a finding.
//
// Patterns are directories relative to the working directory
// ("./internal/msgnet"), import paths ("ssrmin/internal/check"), or
// recursive forms ending in "/..." — the default is "./...". A
// non-recursive pattern that names no Go package (a typo such as
// "./internal/msgnett") is an error, not a clean run: it prints one line
// and exits 2, as a bad flag does. Only packages an analyzer declares in
// its target list are loaded at all, so a repo-wide run type-checks just
// the algorithm, trace and runtime packages plus their dependencies.
//
// Output is one "file:line:col: message [analyzer]" line per finding, or
// a JSON array with -json. Findings are suppressed by an adjacent
// "//lint:ignore <analyzer> <reason>" comment; the reason is mandatory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"ssrmin/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run lints the packages named in args and returns the exit code: 0 when
// clean, 1 on any finding, 2 on a bad flag or package pattern.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("ssrmin-lint", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		jsonOut = flags.Bool("json", false, "emit diagnostics as a JSON array on stdout")
		subset  = flags.String("analyzers", "", "comma-separated analyzer subset (default: all)")
		list    = flags.Bool("list", false, "list the analyzers and their target packages, then exit")
	)
	flags.Usage = func() {
		fmt.Fprintf(stderr, "usage: ssrmin-lint [-json] [-analyzers a,b] [packages]\n\n")
		flags.PrintDefaults()
	}
	if err := flags.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "ssrmin-lint: "+format+"\n", a...)
		return 2
	}

	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
			for _, p := range a.Packages {
				fmt.Fprintf(stdout, "%-16s   %s\n", "", p)
			}
		}
		return 0
	}

	analyzers := lint.All()
	if *subset != "" {
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*subset, ",") {
			a := lint.Lookup(strings.TrimSpace(name))
			if a == nil {
				return fail("unknown analyzer %q (have: %s)", name, analyzerNames())
			}
			analyzers = append(analyzers, a)
		}
	}

	loader, err := lint.NewLoader(".")
	if err != nil {
		return fail("%v", err)
	}

	patterns := flags.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs, err := resolve(loader, patterns)
	if err != nil {
		return fail("%v", err)
	}

	var diags []lint.Diagnostic
	for _, dir := range dirs {
		path, err := loader.ImportPath(dir)
		if err != nil {
			return fail("%v", err)
		}
		var applicable []*lint.Analyzer
		for _, a := range analyzers {
			if a.AppliesTo(path) {
				applicable = append(applicable, a)
			}
		}
		if len(applicable) == 0 {
			continue
		}
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			return fail("%v", err)
		}
		diags = append(diags, lint.RunAnalyzers(pkg, applicable...)...)
	}

	if *jsonOut {
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			return fail("%v", err)
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "ssrmin-lint: %d finding(s)\n", len(diags))
		}
		return 1
	}
	return 0
}

// resolve expands package patterns into package directories. A pattern is
// a directory, an import path under the module, or either form suffixed
// with "/..." for a recursive walk. testdata, vendor and hidden
// directories are never descended into. A non-recursive pattern must name
// a directory holding a Go package.
func resolve(loader *lint.Loader, patterns []string) ([]string, error) {
	var dirs []string
	seen := map[string]bool{}
	add := func(dir string) {
		clean := filepath.Clean(dir)
		if !seen[clean] {
			seen[clean] = true
			dirs = append(dirs, clean)
		}
	}
	for _, orig := range patterns {
		pat, recursive := orig, false
		if pat == "..." {
			pat, recursive = ".", true
		} else if strings.HasSuffix(pat, "/...") {
			pat, recursive = strings.TrimSuffix(pat, "/..."), true
		}
		// Import paths under the module map back onto source directories.
		if pat == loader.Module {
			pat = loader.Root
		} else if rest, ok := strings.CutPrefix(pat, loader.Module+"/"); ok {
			pat = filepath.Join(loader.Root, filepath.FromSlash(rest))
		}
		if !recursive {
			if !hasGoFiles(pat) {
				return nil, fmt.Errorf("pattern %q matches no Go package", orig)
			}
			add(pat)
			continue
		}
		err := filepath.WalkDir(pat, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != pat && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

// hasGoFiles reports whether dir directly contains at least one
// non-test Go source file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") &&
			!strings.HasSuffix(name, "_test.go") && !strings.HasPrefix(name, ".") {
			return true
		}
	}
	return false
}

func analyzerNames() string {
	var names []string
	for _, a := range lint.All() {
		names = append(names, a.Name)
	}
	return strings.Join(names, ", ")
}
