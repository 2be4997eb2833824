// Command benchjson converts `go test -bench` output into a JSON record
// file so benchmark trajectories can be tracked across commits
// (BENCH_check.json and BENCH_msgnet.json in this repository; see
// `make bench-check` / `make bench-msgnet`). It reads the benchmark
// output on stdin, echoes it unchanged to stdout, and writes the parsed
// results to -o.
//
//	go test -run '^$' -bench 'ModelCheck|ParallelSweep' -benchmem . \
//	    | go run ./cmd/benchjson -o BENCH_check.json
//
// With -compare it instead diffs two record files and exits non-zero on
// regression, so CI can gate on a committed baseline:
//
//	go run ./cmd/benchjson -compare old.json new.json -max-regress 10
//
// fails (exit 1) if any benchmark present in old.json is missing from
// new.json or got more than 10% slower in ns/op.
//
// Records store the bare benchmark name: the `-N` suffix that `go test`
// appends when GOMAXPROCS = N > 1 goes into the procs field, so records
// taken at different GOMAXPROCS still match by name. Each record also
// carries the goos/goarch/cpu header lines `go test -bench` printed above
// it and the machine's logical CPU count. -compare notes a GOMAXPROCS or
// CPU difference but does not fail on it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	// Name is the benchmark name without the GOMAXPROCS suffix.
	Name string `json:"name"`
	// Procs is the GOMAXPROCS the benchmark ran at.
	Procs       int     `json:"procs,omitempty"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// Metrics holds custom b.ReportMetric units, e.g. "events/s" or
	// "cfg/s" — anything on the line beyond the three standard units.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	Hardware
}

// Hardware names the machine a benchmark ran on: the goos, goarch and cpu
// header lines of `go test -bench` output, and runtime.NumCPU.
type Hardware struct {
	GOOS   string `json:"goos,omitempty"`
	GOARCH string `json:"goarch,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	NumCPU int    `json:"num_cpu,omitempty"`
}

func main() {
	out := flag.String("o", "BENCH_check.json", "output JSON file")
	compare := flag.Bool("compare", false,
		"compare two record files: benchjson -compare old.json new.json [-max-regress pct]")
	maxRegress := flag.Float64("max-regress", 10,
		"with -compare, fail if ns/op regresses by more than this percentage")
	flag.Parse()

	if *compare {
		// The documented calling convention puts -max-regress after the two
		// positional files; the flag package stops parsing at the first
		// positional, so re-scan the remaining args by hand.
		files := make([]string, 0, 2)
		args := flag.Args()
		for i := 0; i < len(args); i++ {
			a := args[i]
			if a == "-max-regress" || a == "--max-regress" {
				if i+1 >= len(args) {
					fmt.Fprintln(os.Stderr, "benchjson: -max-regress needs a value")
					os.Exit(2)
				}
				v, err := strconv.ParseFloat(args[i+1], 64)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchjson: -max-regress: %v\n", err)
					os.Exit(2)
				}
				*maxRegress = v
				i++
				continue
			}
			files = append(files, a)
		}
		if len(files) != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchjson -compare old.json new.json [-max-regress pct]")
			os.Exit(2)
		}
		report, fail, err := compareFiles(files[0], files[1], *maxRegress)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(2)
		}
		fmt.Print(report)
		if fail {
			os.Exit(1)
		}
		return
	}

	results, err := readResults(os.Stdin, os.Stdout, runtime.NumCPU())
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: reading stdin: %v\n", err)
		os.Exit(1)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found on stdin")
		os.Exit(1)
	}
	results = mergeRuns(results)
	buf, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d results to %s\n", len(results), *out)
}

// readResults parses `go test -bench` output from r, echoing every line
// to echo. Each result is stamped with the most recent goos/goarch/cpu
// header lines and numCPU.
func readResults(r io.Reader, echo io.Writer, numCPU int) ([]Result, error) {
	hw := Hardware{NumCPU: numCPU}
	var results []Result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		if v, ok := strings.CutPrefix(line, "goos: "); ok {
			hw.GOOS = v
		} else if v, ok := strings.CutPrefix(line, "goarch: "); ok {
			hw.GOARCH = v
		} else if v, ok := strings.CutPrefix(line, "cpu: "); ok {
			hw.CPU = v
		} else if res, ok := parse(line); ok {
			res.Hardware = hw
			results = append(results, res)
		}
	}
	return results, sc.Err()
}

// parse decodes one `go test -bench` result line, e.g.
//
//	BenchmarkModelCheck/engine/n=4,K=5-8  22  50729155 ns/op  5056 B/op  24 allocs/op
//
// which yields the name "BenchmarkModelCheck/engine/n=4,K=5" at procs 8.
func parse(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Iterations: iters}
	r.Name, r.Procs = splitProcs(fields[0])
	for i := 2; i+1 < len(fields); i++ {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = int64(v)
		case "allocs/op":
			r.AllocsPerOp = int64(v)
		default:
			// A custom b.ReportMetric unit always contains a slash
			// ("events/s", "MB/s"); bare numbers next to each other do not.
			if strings.Contains(unit, "/") {
				if r.Metrics == nil {
					r.Metrics = map[string]float64{}
				}
				r.Metrics[unit] = v
			} else {
				continue // next field may still be a value
			}
		}
		i++ // consume the unit
	}
	if r.NsPerOp == 0 {
		return Result{}, false
	}
	return r, true
}

// splitProcs splits the `-N` suffix that `go test` appends to a benchmark
// name when it runs at GOMAXPROCS = N > 1; a name without one ran at 1.
func splitProcs(name string) (string, int) {
	if i := strings.LastIndexByte(name, '-'); i >= 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil && p > 1 {
			return name[:i], p
		}
	}
	return name, 1
}

// mergeRuns collapses repeated runs of the same benchmark (`go test
// -count N`) into one record each: the run with the median ns/op, so
// the record stays internally coherent (its B/op, allocs/op and custom
// metrics all come from the same run) while a single outlier run cannot
// skew the committed baseline. First-occurrence order is preserved.
func mergeRuns(results []Result) []Result {
	type key struct {
		name  string
		procs int
	}
	runs := make(map[key][]Result, len(results))
	order := make([]key, 0, len(results))
	for _, r := range results {
		k := key{r.Name, r.Procs}
		if _, seen := runs[k]; !seen {
			order = append(order, k)
		}
		runs[k] = append(runs[k], r)
	}
	merged := make([]Result, 0, len(order))
	for _, k := range order {
		rs := runs[k]
		sort.Slice(rs, func(i, j int) bool { return rs[i].NsPerOp < rs[j].NsPerOp })
		merged = append(merged, rs[(len(rs)-1)/2])
	}
	return merged
}

// compareFiles diffs two record files written by benchjson. Every
// benchmark in oldPath must exist in newPath (a vanished benchmark is a
// regression in coverage) and must not have slowed down in ns/op by more
// than maxRegress percent. Names match without their GOMAXPROCS suffix;
// where new.json holds the name at several GOMAXPROCS, the run at old's
// GOMAXPROCS is compared. It returns a human-readable report and
// whether the comparison failed; err covers unreadable inputs only.
func compareFiles(oldPath, newPath string, maxRegress float64) (report string, fail bool, err error) {
	oldResults, err := loadResults(oldPath)
	if err != nil {
		return "", false, err
	}
	newResults, err := loadResults(newPath)
	if err != nil {
		return "", false, err
	}
	byName := make(map[string][]Result, len(newResults))
	for _, r := range newResults {
		byName[r.Name] = append(byName[r.Name], r)
	}
	var b strings.Builder
	for _, o := range oldResults {
		cands := byName[o.Name]
		if len(cands) == 0 {
			fmt.Fprintf(&b, "FAIL %-60s missing from %s\n", o.Name, newPath)
			fail = true
			continue
		}
		n := cands[0]
		for _, c := range cands {
			if c.Procs == o.Procs {
				n = c
			}
		}
		if o.NsPerOp <= 0 {
			// A zero or negative baseline makes the percentage meaningless
			// (division by zero) — fail loudly instead of printing +Inf.
			fmt.Fprintf(&b, "FAIL %-60s non-positive baseline %g ns/op in %s — cannot compute regression\n",
				o.Name, o.NsPerOp, oldPath)
			fail = true
			continue
		}
		pct := (n.NsPerOp - o.NsPerOp) / o.NsPerOp * 100
		verdict := "ok  "
		if pct > maxRegress {
			verdict = "FAIL"
			fail = true
		}
		note := ""
		if n.Procs != o.Procs {
			note = fmt.Sprintf("  GOMAXPROCS %d -> %d", o.Procs, n.Procs)
		}
		if o.CPU != "" && n.CPU != "" && n.CPU != o.CPU {
			note += fmt.Sprintf("  cpu %s -> %s", o.CPU, n.CPU)
		}
		fmt.Fprintf(&b, "%s %-60s %12.0f -> %12.0f ns/op  %+7.1f%% (max +%.1f%%)%s\n",
			verdict, o.Name, o.NsPerOp, n.NsPerOp, pct, maxRegress, note)
		if mfail := compareMetrics(&b, o, n, oldPath, newPath); mfail {
			fail = true
		}
	}
	if fail {
		fmt.Fprintf(&b, "benchjson: regression beyond %.1f%% against %s\n", maxRegress, oldPath)
	}
	return b.String(), fail, nil
}

// compareMetrics diffs the custom metric sets of one benchmark. A metric
// present in only one file is an error — a silently vanished (or
// suddenly appearing) ReportMetric means the benchmark no longer
// measures what the baseline recorded, which a ns/op-only diff would
// pass without comment. Shared metrics are reported informationally:
// their units differ in direction (events/s up is good, B/op up is bad),
// so no single threshold applies.
func compareMetrics(b *strings.Builder, o, n Result, oldPath, newPath string) (fail bool) {
	names := make(map[string]bool, len(o.Metrics)+len(n.Metrics))
	for m := range o.Metrics {
		names[m] = true
	}
	for m := range n.Metrics {
		names[m] = true
	}
	sorted := make([]string, 0, len(names))
	for m := range names {
		sorted = append(sorted, m)
	}
	sort.Strings(sorted)
	for _, m := range sorted {
		ov, oOK := o.Metrics[m]
		nv, nOK := n.Metrics[m]
		switch {
		case !nOK:
			fmt.Fprintf(b, "FAIL %-60s metric %q recorded in %s but missing from %s\n", o.Name, m, oldPath, newPath)
			fail = true
		case !oOK:
			fmt.Fprintf(b, "FAIL %-60s metric %q recorded in %s but missing from %s\n", o.Name, m, newPath, oldPath)
			fail = true
		default:
			fmt.Fprintf(b, "info %-60s %12.2f -> %12.2f %s\n", o.Name, ov, nv, m)
		}
	}
	return fail
}

func loadResults(path string) ([]Result, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []Result
	if err := json.Unmarshal(buf, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rs) == 0 {
		return nil, fmt.Errorf("%s: no benchmark results", path)
	}
	for i := range rs {
		if rs[i].Procs == 0 {
			// Written before records carried procs: the name holds the
			// suffix, or it ran at GOMAXPROCS 1.
			rs[i].Name, rs[i].Procs = splitProcs(rs[i].Name)
		}
	}
	return rs, nil
}
