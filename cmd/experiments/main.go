// Command experiments regenerates every evaluation artifact of the paper —
// each worked figure (1, 2, 3, 4, 11, 12, 13) and each formal result
// (Lemmas 1–9, Theorems 1–4) — as tables printed to stdout. EXPERIMENTS.md
// records a run of this command next to the paper's claims.
//
// Usage:
//
//	experiments              # run everything
//	experiments -run fig4    # one experiment
//	experiments -list        # list experiment ids
//	experiments -quick       # smaller sweeps (CI-friendly)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"ssrmin/internal/cliconf"
	"ssrmin/internal/report"
)

// runCapturing tees the experiment's stdout into a file.
func runCapturing(e experiment, cfg runConfig, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		e.run(cfg)
		return
	}
	defer f.Close()
	if err := withStdout(io.MultiWriter(os.Stdout, f), func() { e.run(cfg) }); err != nil {
		fmt.Fprintln(os.Stderr, err)
		e.run(cfg)
	}
}

// withStdout runs f with os.Stdout copied into w. Experiments print
// directly to os.Stdout, so the capture swaps it for the duration of the
// run (the harness is single-threaded per experiment).
func withStdout(w io.Writer, f func()) error {
	orig := os.Stdout
	r, pw, err := os.Pipe()
	if err != nil {
		return err
	}
	os.Stdout = pw
	done := make(chan struct{})
	go func() {
		io.Copy(w, r)
		close(done)
	}()
	defer func() {
		pw.Close()
		<-done
		r.Close()
		os.Stdout = orig
	}()
	f()
	return nil
}

// tableFormat is the renderer every experiment's tables use; the -format
// flag sets it.
var tableFormat = report.Text

// newTable creates an experiment table bound to the selected format.
func newTable(header ...string) *report.Table { return report.New("", header...) }

// printTable renders a table to stdout in the selected format.
func printTable(t *report.Table) {
	if err := t.Render(os.Stdout, tableFormat); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
}

// experiment is one regenerable artifact.
type experiment struct {
	id    string
	what  string // the paper artifact it reproduces
	run   func(cfg runConfig)
	order int
}

type runConfig struct {
	quick bool
	seed  int64
}

var registry []experiment

func register(order int, id, what string, run func(runConfig)) {
	registry = append(registry, experiment{id: id, what: what, run: run, order: order})
}

func main() {
	var cc cliconf.Config
	cc.BindSeed(flag.CommandLine, 1)
	var (
		runF    = flag.String("run", "all", "comma-separated experiment ids (see -list)")
		list    = flag.Bool("list", false, "list experiments and exit")
		quick   = flag.Bool("quick", false, "smaller sweeps")
		formatF = flag.String("format", "text", "table output format: text | md | csv")
		outDir  = flag.String("out", "", "also write each experiment's output to <dir>/<id>.txt")
	)
	flag.Parse()
	f, err := report.ParseFormat(*formatF)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	tableFormat = f

	sort.Slice(registry, func(i, j int) bool { return registry[i].order < registry[j].order })

	if *list {
		for _, e := range registry {
			fmt.Printf("%-12s %s\n", e.id, e.what)
		}
		return
	}

	want := map[string]bool{}
	all := *runF == "all"
	for _, id := range strings.Split(*runF, ",") {
		want[strings.TrimSpace(id)] = true
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	cfg := runConfig{quick: *quick, seed: cc.Seed}
	ran := 0
	for _, e := range registry {
		if !all && !want[e.id] {
			continue
		}
		fmt.Printf("\n================================================================\n")
		fmt.Printf("Experiment %s — %s\n", e.id, e.what)
		fmt.Printf("================================================================\n")
		start := time.Now()
		if *outDir == "" {
			e.run(cfg)
		} else {
			runCapturing(e, cfg, filepath.Join(*outDir, e.id+".txt"))
		}
		fmt.Printf("[%s done in %v]\n", e.id, time.Since(start).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiment matches %q; try -list\n", *runF)
		os.Exit(2)
	}
}
