package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"ssrmin/internal/bitslice"
	"ssrmin/internal/crosscheck"
)

// Toy sizes of the four workloads: the same code paths as the full runs,
// small enough that the whole file runs in a few seconds.
var (
	fig12Toy  = fig12Config{ns: []int{16, 32, 64}, batches: 8, warmBatches: 2, probeCalls: 200}
	verifyToy = verifyConfig{
		n: 3, k: 4, expect: verifyExpect{legit: 36, quiet: 5, worst: 16, edges: 21_860},
		warmN: 3, warmK: 4, warmExpect: verifyExpect{legit: 36, quiet: 5, worst: 16, edges: 21_860},
	}
	engineToy = engineConfig{
		n: 1000, warmup: 0.05, window: 0.2, slice: 0.05, tracedReps: 1,
		ruleWindow: 0.05, ruleViews: 256, probeCalls: 10_000,
		delay: 10 * time.Millisecond, jitter: 2 * time.Millisecond, refresh: 50 * time.Millisecond,
	}
	soakToy = func() soakConfig {
		c := soakFull
		c.scenarios, c.warmScenarios, c.tracedReps, c.tierScenarios, c.obsScenarios = 6, 2, 1, 6, 2
		return c
	}()
)

func toyWorkloads(seed int64) []workload {
	return []workload{
		newFig12(fig12Toy, seed),
		newVerify(verifyToy),
		newEngine(engineToy, seed),
		newSoak(soakToy, seed),
	}
}

// runToy executes w for the given budget; a negligible one runs a
// single repetition per phase.
func runToy(t *testing.T, w workload, trace bool, seconds float64) outcome {
	t.Helper()
	opt := runOptions{workload: w.name(), seed: 1, seconds: seconds, trace: trace}
	if trace {
		opt.traceOut = filepath.Join(t.TempDir(), "trace.json")
	}
	var out bytes.Buffer
	oc, err := execute(w, opt, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", w.name(), err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%s: last line is not the result: %v", w.name(), err)
	}
	if !strings.HasPrefix(lines[0], "# manifest {") {
		t.Errorf("%s: report does not open with the run manifest: %q", w.name(), lines[0])
	}
	return oc
}

// benchmarkJSON mirrors the root BENCHMARK.json declaration.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var bj benchmarkJSON
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	checkName := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is not [A-Za-z0-9_.-]+ of at most 64", kind, name)
		}
		if seen[name] {
			t.Errorf("%s name %q used twice", kind, name)
		}
		seen[name] = true
	}

	if n := len(bj.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	var names []string
	for _, w := range bj.Workloads {
		checkName("workload", w.Name)
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}
	if !slices.Equal(names, allWorkloads) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, allWorkloads)
	}

	if n := len(bj.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(bj.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if len(bj.EndToEnd) != len(e2eMetrics) || len(bj.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the benchmark %d+%d",
			len(bj.EndToEnd), len(bj.PerLayer), len(e2eMetrics), len(layerMetrics))
	}
	maxBound := 0.0
	for i, m := range bj.EndToEnd {
		checkName("metric", m.Name)
		d := e2eMetrics[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end-to-end %d: BENCHMARK.json %s/%s/%s, benchmark %s/%s/%s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	if bj.EndToEnd[0].Name != "setup_s" || bj.EndToEnd[0].Bound != maxBound {
		t.Errorf("setup_s must be declared with the largest bound")
	}
	for i, m := range bj.PerLayer {
		checkName("metric", m.Name)
		d := layerMetrics[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %s/%s/%s, benchmark %s/%s/%s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
		if _, ok := lookupDecl(e2eMetrics, d.moves); !ok {
			t.Errorf("%s moves %q, not an end-to-end metric", d.name, d.moves)
		}
		if len(d.on) == 0 {
			t.Errorf("%s names no workload", d.name)
		}
		for _, w := range d.on {
			if !slices.Contains(allWorkloads, w) {
				t.Errorf("%s names unknown workload %q", d.name, w)
			}
		}
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, d := range append(append([]metricDecl(nil), e2eMetrics...), layerMetrics...) {
		if !unitRE.MatchString(d.unit) {
			t.Errorf("%s: unit %q", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("%s: better %q", d.name, d.better)
		}
	}
}

// TestWorkloadsSmoke runs every workload at toy size, untraced and
// traced: all checks pass, the result line carries exactly the declared
// metrics, and each workload measures every layer metric declared on it
// and no other.
func TestWorkloadsSmoke(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	declared := func(layer bool) []string {
		var out []string
		if layer {
			for _, m := range bj.PerLayer {
				out = append(out, m.Name)
			}
		} else {
			for _, m := range bj.EndToEnd {
				out = append(out, m.Name)
			}
		}
		slices.Sort(out)
		return out
	}
	for _, w := range toyWorkloads(1) {
		for _, trace := range []bool{false, true} {
			oc := runToy(t, w, trace, 1e-6)
			if !oc.res.Correct || oc.res.Failed != 0 || oc.res.Attempted == 0 || exitCode(oc.res) != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name(), trace, oc.res.Correct, oc.res.Attempted, oc.res.Failed)
			}
			var got []string
			for name, v := range oc.res.Metrics {
				got = append(got, name)
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%v: %s = %v", w.name(), trace, name, v.Value)
				}
			}
			slices.Sort(got)
			if want := declared(trace); !slices.Equal(got, want) {
				t.Errorf("%s trace=%v: emitted %v, declared %v", w.name(), trace, got, want)
			}
			if !trace {
				for _, d := range e2eMetrics {
					if oc.res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end %s = %v, must be positive", w.name(), d.name, oc.res.Metrics[d.name].Value)
					}
				}
				continue
			}
			for _, d := range layerMetrics {
				_, measured := oc.measured[d.name]
				if on := slices.Contains(d.on, w.name()); on != measured {
					t.Errorf("%s: layer metric %s measured=%v, declared on %v", w.name(), d.name, measured, d.on)
				}
			}
		}
	}
}

// TestChecksFire doctors an expected value or an oracle and demands a
// failed check and a non-zero exit code.
func TestChecksFire(t *testing.T) {
	doctoredOracle := fig12Toy
	doctoredOracle.oracle = func(a batchAlg, n, k int, seed int64, lane, maxSteps int) (int, bool) {
		steps, ok := a.scalar(n, k, bitslice.Subset, seed, lane, maxSteps)
		return steps + 1, ok
	}
	doctoredWorst := verifyToy
	doctoredWorst.expect.worst++
	doctoredEdges := verifyToy
	doctoredEdges.expect.edges--
	for _, w := range []workload{newFig12(doctoredOracle, 1), newVerify(doctoredWorst), newVerify(doctoredEdges)} {
		oc := runToy(t, w, false, 1e-6)
		if oc.res.Failed == 0 || oc.res.Correct || exitCode(oc.res) == 0 {
			t.Errorf("%s: doctored run reported failed=%d correct=%v exit=%d", w.name(), oc.res.Failed, oc.res.Correct, exitCode(oc.res))
		}
	}

	// A lane that did not converge.
	f := newFig12(fig12Toy, 1)
	if err := f.setup(); err != nil {
		t.Fatal(err)
	}
	f.rep(nil, -1)
	f.cells[0].outs[0].converged &^= 1
	if c := f.check(); c.failed == 0 {
		t.Error("fig12: an unconverged lane passed the check")
	}

	// A census outside 1..2 and a window without handover.
	e := newEngine(engineToy, 1)
	if err := e.setup(); err != nil {
		t.Fatal(err)
	}
	defer e.teardown()
	e.rep(nil, -1)
	e.last.census[0] = 3
	if c := e.check(); c.failed != 1 {
		t.Errorf("engine: census 3 gave %d failed checks, want 1", c.failed)
	}
	e.last.census = []int{1}
	if c := e.check(); c.failed != 1 {
		t.Errorf("engine: a window without handover gave %d failed checks, want 1", c.failed)
	}

	// A tier reporting a violation, and a repetition whose rule counts
	// differ from the first.
	s := newSoak(soakToy, 1)
	if err := s.setup(); err != nil {
		t.Fatal(err)
	}
	s.rep(nil, -1)
	if c := s.check(); c.failed != 0 {
		t.Fatalf("soak: clean repetition failed: %v", c.notes)
	}
	s.rep(nil, -1)
	s.last[0].rep.Engines[0].Violations = []crosscheck.Violation{{Engine: "state", Kind: "census"}}
	s.last[1].rep.Engines[0].RuleExecutions++
	if c := s.check(); c.failed != 2 {
		t.Errorf("soak: violation plus rule drift gave %d failed checks, want 2: %v", c.failed, c.notes)
	}
}

// TestDeterminism: the same seed generates the same inputs and the same
// deterministic counts, however many repetitions the budget fits; another
// seed changes the generated inputs.
func TestDeterminism(t *testing.T) {
	for i, a := range toyWorkloads(7) {
		b := toyWorkloads(7)[i]
		other := toyWorkloads(8)[i]
		if a.inputDigest() != b.inputDigest() {
			t.Errorf("%s: seed 7 generated different inputs", a.name())
		}
		runToy(t, a, false, 1e-6)
		runToy(t, b, false, 0.1)
		ca, cb := a.counts(), b.counts()
		if len(ca) == 0 {
			t.Errorf("%s: no deterministic counts", a.name())
		}
		for k, v := range ca {
			if cb[k] != v {
				t.Errorf("%s: %s = %v then %v on the same seed", a.name(), k, v, cb[k])
			}
		}
		if a.name() != wVerify && a.inputDigest() == other.inputDigest() {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", a.name())
		}
	}
}

func TestSelfTimesAndChromeShape(t *testing.T) {
	// root [0,100] with children a [10,40] and b [30,60] overlapping on
	// two lanes, c [90,120] running past root's end, and a's child d
	// [15,25].
	spans := []span{
		{id: 0, parent: -1, track: 0, name: "root", start: 0, end: 100},
		{id: 1, parent: 0, track: 1, name: "a", start: 10, end: 40},
		{id: 2, parent: 0, track: 2, name: "b", start: 30, end: 60},
		{id: 3, parent: 0, track: 1, name: "c", start: 90, end: 120},
		{id: 4, parent: 1, track: 1, name: "d", start: 15, end: 25},
	}
	got := selfTimes(spans)
	want := []int64{100 - 50 - 10, 30 - 10, 30, 30, 10}
	if !slices.Equal(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}

	var buf bytes.Buffer
	if err := writeChrome(&buf, "toy", spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	complete := 0
	for _, ev := range doc.TraceEvents {
		for _, key := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Errorf("event %v lacks %q", ev, key)
			}
		}
		switch ev["ph"] {
		case "M":
		case "X":
			complete++
			args, _ := ev["args"].(map[string]any)
			if _, ok := ev["ts"].(float64); !ok || args == nil {
				t.Errorf("complete event %v lacks ts or args", ev)
			}
			if ev["name"] == "root" && (ev["dur"] != 0.1 || args["self_us"] != 0.04) {
				t.Errorf("root event %v: want dur 0.1 µs, self 0.04 µs", ev)
			}
		default:
			t.Errorf("unexpected phase %v", ev["ph"])
		}
	}
	if complete != len(spans) {
		t.Errorf("%d complete events, want %d", complete, len(spans))
	}

	// Nil tracer: the untraced mode records nothing and never panics.
	var nilTracer *tracer
	nilTracer.end(nilTracer.beginItem("x", nilTracer.begin("y", -1)))
}

func TestSweepClock(t *testing.T) {
	c := &sweepClock{workers: 2, wall: 10 * time.Second, items: []itemTime{
		{index: 0, start: 0, end: 4 * time.Second},
		{index: 1, start: 0, end: 6 * time.Second},
		{index: 2, start: 4 * time.Second, end: 10 * time.Second},
	}}
	// Item 2 starts at 4 s, taking the last index; item 1 ends at 6 s and
	// its worker finds nothing left.
	if got := c.tail(); got != 4 {
		t.Errorf("tail %v s, want 4", got)
	}
	if sum, capacity := c.busy(); sum != 16 || capacity != 20 {
		t.Errorf("busy %v of %v, want 16 of 20", sum, capacity)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", wFig12, "--trace", "2"},
		{"--workload", wFig12, "--seconds", "0"},
		{"--workload", wFig12, "extra"},
	} {
		var out, errw bytes.Buffer
		if code := run(args, &out, &errw); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want 2 and nothing printed", args, code, out.String())
		}
	}
}
