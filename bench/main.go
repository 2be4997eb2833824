// Command bench is the repository's end-to-end benchmark. It runs one
// workload per process through the library's public functions, times
// each repetition from outside, checks every output for correctness and
// prints one JSON result line last:
//
//	bash bench/run.sh --workload fig12-sweep --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the run also records spans around every layer call, writes a
// Chrome trace-event file that Perfetto opens, and reports the per-layer
// metrics instead. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median, so one slow set-up on a shared machine does not move it.
const setupReps = 3

// workload is one benchmark input set driven through the library.
type workload interface {
	// name is the workload's name in BENCHMARK.json.
	name() string
	// params lists the workload's parameters for the run manifest.
	params() map[string]any
	// setup generates the inputs from the seed, builds the long-lived
	// structures a repetition needs and runs one warm-up pass.
	setup() error
	// teardown releases what setup built (untimed, before the next setup).
	teardown()
	// rep runs one fixed-size repetition. With tr non-nil it records a
	// span around every layer call, under root.
	rep(tr *tracer, root int32)
	// check verifies the outputs of the last repetition.
	check() tally
	// minTracedReps is the number of traced repetitions layers needs.
	minTracedReps() int
	// layers fills the per-layer metrics from the traced repetitions'
	// spans and from traced-only probes, checking the probes' outputs.
	layers(tr *tracer, m metricSet) tally
	// counts returns deterministic counts of the last repetition; the
	// same seed must give the same counts.
	counts() map[string]float64
	// inputDigest fingerprints the inputs generated from the seed.
	inputDigest() string
	// work is the amount of work in one repetition and its unit, for the
	// report's throughput line (seeds, configurations, ...).
	work() (float64, string)
}

// tally counts the correctness checks of a run.
type tally struct {
	attempted, failed int
	notes             []string
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.notes = append(t.notes, o.notes...)
}

// expect records one check: ok passes, otherwise the formatted note
// explains the failure.
func (t *tally) expect(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.failed++
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type runOptions struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	jsonOut  string
	traceOut string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses the command line, runs the workload and returns the exit
// code: 0 when every output was correct, 1 when a check failed or the
// run could not complete, 2 for a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt runOptions
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "workload: fig12-sweep, verify-n5, engine-100k or soak-mix")
	fs.Int64Var(&opt.seed, "seed", 1, "seed from which every input is generated")
	fs.Float64Var(&opt.seconds, "seconds", 20, "measurement budget in seconds")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	fs.StringVar(&opt.jsonOut, "json", "", "also write the result with its run manifest to this file")
	fs.StringVar(&opt.traceOut, "trace-out", "", "Chrome trace file of a traced run (default .bench_build/trace/<workload>-seed<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %v\n", fs.Args())
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "bench: --trace must be 0 or 1, got %d\n", trace)
		return 2
	}
	opt.trace = trace == 1
	if opt.seconds <= 0 {
		fmt.Fprintf(stderr, "bench: --seconds must be positive, got %v\n", opt.seconds)
		return 2
	}
	if opt.trace && opt.traceOut == "" {
		opt.traceOut = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", opt.workload, opt.seed))
	}
	w, err := newWorkload(opt.workload, opt.seed)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	oc, err := execute(w, opt, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return exitCode(oc.res)
}

// exitCode is 0 for a run whose every output was correct, 1 otherwise.
func exitCode(res result) int {
	if res.Correct {
		return 0
	}
	return 1
}

// numWorkers is every workload's parallelism: one worker per CPU, and no
// goroutines beyond that (the engine's shard loops count toward it).
func numWorkers() int { return runtime.NumCPU() }

// newWorkload builds a full-size workload by name.
func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case wFig12:
		return newFig12(fig12Full, seed), nil
	case wVerify:
		return newVerify(verifyFull), nil
	case wEngine:
		return newEngine(engineFull, seed), nil
	case wSoak:
		return newSoak(soakFull, seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, allWorkloads)
}

// outcome is a completed run: its result line and every metric it
// measured.
type outcome struct {
	res      result
	measured metricSet
}

// execute sets the workload up, measures it for the budget, checks its
// outputs and prints the human-readable report followed by the result
// line. The error is for runs that could not complete; failed checks
// come back as a result with Correct false.
func execute(w workload, opt runOptions, out io.Writer) (outcome, error) {
	man := newManifest(w, opt)
	if err := printManifest(out, man); err != nil {
		return outcome{}, err
	}

	var setups []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			w.teardown()
		}
		runtime.GC()
		start := time.Now()
		if err := w.setup(); err != nil {
			return outcome{}, fmt.Errorf("%s set-up: %w", w.name(), err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer w.teardown()

	// Peak RSS is read once, after the set-ups and the first repetition:
	// a fixed amount of work, so a faster build that fits more
	// repetitions in the budget does not read higher.
	var checks tally
	var rss float64
	var rssErr error
	repOnce := func(tr *tracer) float64 {
		d := timeRep(func() {
			root := tr.begin("rep", -1)
			w.rep(tr, root)
			tr.end(root)
		})
		checks.add(w.check())
		if rss == 0 && rssErr == nil {
			rss, rssErr = peakRSSMiB()
		}
		return d
	}
	budget := time.Duration(opt.seconds * float64(time.Second))
	if opt.trace {
		budget /= 2
	}
	untraced := repeatFor(budget, 1, func() float64 { return repOnce(nil) })

	if rssErr != nil {
		return outcome{}, rssErr
	}
	m := metricSet{"setup_s": median(setups), "rep_s": median(untraced), "peak_rss_mib": rss}
	amount, unit := w.work()
	fmt.Fprintf(out, "# %s: %d set-ups %v s, %d repetitions %v s: %.6g %s/s\n",
		w.name(), len(setups), setups, len(untraced), untraced, amount/m["rep_s"], unit)

	decls := e2eMetrics
	if opt.trace {
		decls = layerMetrics
		tr := newTracer()
		traced := repeatFor(budget, w.minTracedReps(), func() float64 { return repOnce(tr) })
		fmt.Fprintf(out, "# traced: %d repetitions %v s\n", len(traced), traced)
		m["trace.overhead_ratio"] = median(traced) / median(untraced)
		checks.add(w.layers(tr, m))
		if err := writeChromeFile(opt.traceOut, w.name(), tr.snapshot()); err != nil {
			return outcome{}, err
		}
		fmt.Fprintf(out, "# trace written to %s\n", opt.traceOut)
	}

	res, err := buildResult(decls, m, checks)
	if err != nil {
		return outcome{}, err
	}
	for _, note := range checks.notes {
		fmt.Fprintf(out, "# FAILED CHECK: %s\n", note)
	}
	printMetrics(out, w.name(), decls, res)
	if opt.jsonOut != "" {
		if err := writeJSONFile(opt.jsonOut, map[string]any{
			"manifest": man, "result": res, "counts": w.counts(),
		}); err != nil {
			return outcome{}, err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return outcome{}, err
	}
	fmt.Fprintln(out, string(line))
	return outcome{res: res, measured: m}, nil
}

// buildResult assembles the result line from the declared metrics. Every
// end-to-end metric must have been measured; a layer metric the workload
// does not exercise reads 0. A measured name outside both declarations
// is a benchmark bug.
func buildResult(decls []metricDecl, m metricSet, checks tally) (result, error) {
	for name := range m {
		_, e2e := lookupDecl(e2eMetrics, name)
		_, layer := lookupDecl(layerMetrics, name)
		if !e2e && !layer {
			return result{}, fmt.Errorf("metric %q is not declared", name)
		}
	}
	res := result{
		Correct:   checks.failed == 0 && checks.attempted > 0,
		Attempted: checks.attempted,
		Failed:    checks.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range decls {
		v, ok := m[d.name]
		if !ok && d.moves == "" {
			return result{}, fmt.Errorf("end-to-end metric %q was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

// printMetrics prints one "metric" line per metric the workload
// exercises, in declaration order.
func printMetrics(out io.Writer, workload string, decls []metricDecl, res result) {
	for _, d := range decls {
		if d.on != nil && !slices.Contains(d.on, workload) {
			continue
		}
		v := res.Metrics[d.name]
		fmt.Fprintf(out, "metric %-30s %16.6g %s\n", d.name, v.Value, v.Unit)
	}
	fmt.Fprintf(out, "checks: %d attempted, %d failed\n", res.Attempted, res.Failed)
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("json output: %w", err)
		}
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("json output: %w", err)
	}
	return nil
}
