package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseStandardUnits(t *testing.T) {
	r, ok := parse("BenchmarkModelCheck/engine/n=4,K=5-8  22  50729155 ns/op  5056 B/op  24 allocs/op")
	if !ok {
		t.Fatal("line not parsed")
	}
	if r.Name != "BenchmarkModelCheck/engine/n=4,K=5" || r.Procs != 8 || r.Iterations != 22 {
		t.Fatalf("header: %+v", r)
	}
	if r.NsPerOp != 50729155 || r.BytesPerOp != 5056 || r.AllocsPerOp != 24 {
		t.Fatalf("units: %+v", r)
	}
	if len(r.Metrics) != 0 {
		t.Fatalf("unexpected custom metrics: %v", r.Metrics)
	}
}

func TestParseCustomMetrics(t *testing.T) {
	r, ok := parse("BenchmarkMsgnetStorm/arena/n=32-8  120  9876543 ns/op  1234567 events/s  48 B/op  2 allocs/op")
	if !ok {
		t.Fatal("line not parsed")
	}
	if r.Metrics["events/s"] != 1234567 {
		t.Fatalf("events/s not captured: %+v", r)
	}
	if r.NsPerOp != 9876543 || r.BytesPerOp != 48 || r.AllocsPerOp != 2 {
		t.Fatalf("standard units corrupted by custom metric: %+v", r)
	}
}

func TestParseRejectsNonBenchmarkLines(t *testing.T) {
	for _, line := range []string{
		"goos: linux",
		"PASS",
		"ok  \tssrmin\t1.23s",
		"BenchmarkBroken  notanumber  5 ns/op",
		"BenchmarkNoNs-8  10  42 B/op",
	} {
		if _, ok := parse(line); ok {
			t.Errorf("parsed non-result line %q", line)
		}
	}
}

func TestMergeRunsTakesMedian(t *testing.T) {
	in := []Result{
		{Name: "BenchmarkA", NsPerOp: 900, AllocsPerOp: 1},
		{Name: "BenchmarkB", NsPerOp: 50},
		{Name: "BenchmarkA", NsPerOp: 700, AllocsPerOp: 3},
		{Name: "BenchmarkA", NsPerOp: 800, AllocsPerOp: 2},
	}
	out := mergeRuns(in)
	if len(out) != 2 {
		t.Fatalf("merged to %d records, want 2: %+v", len(out), out)
	}
	if out[0].Name != "BenchmarkA" || out[1].Name != "BenchmarkB" {
		t.Fatalf("first-occurrence order lost: %+v", out)
	}
	// Median run is the 800 ns one; its sibling units ride along.
	if out[0].NsPerOp != 800 || out[0].AllocsPerOp != 2 {
		t.Fatalf("median run not selected: %+v", out[0])
	}
}

// writeRecords marshals results the way the main path does, via a round
// trip through the real file format.
func writeRecords(t *testing.T, dir, name, body string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCompareWithinThreshold(t *testing.T) {
	dir := t.TempDir()
	oldP := writeRecords(t, dir, "old.json",
		`[{"name":"BenchmarkA","iterations":10,"ns_per_op":1000}]`)
	newP := writeRecords(t, dir, "new.json",
		`[{"name":"BenchmarkA","iterations":10,"ns_per_op":1050}]`)
	report, fail, err := compareFiles(oldP, newP, 10)
	if err != nil {
		t.Fatal(err)
	}
	if fail {
		t.Fatalf("5%% drift failed a 10%% threshold:\n%s", report)
	}
	if !strings.Contains(report, "BenchmarkA") {
		t.Fatalf("report omits the benchmark:\n%s", report)
	}
}

func TestCompareFlagsRegression(t *testing.T) {
	dir := t.TempDir()
	oldP := writeRecords(t, dir, "old.json",
		`[{"name":"BenchmarkA","iterations":10,"ns_per_op":1000},
		  {"name":"BenchmarkB","iterations":10,"ns_per_op":2000}]`)
	newP := writeRecords(t, dir, "new.json",
		`[{"name":"BenchmarkA","iterations":10,"ns_per_op":1300},
		  {"name":"BenchmarkB","iterations":10,"ns_per_op":1900}]`)
	report, fail, err := compareFiles(oldP, newP, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !fail {
		t.Fatalf("30%% regression passed a 10%% threshold:\n%s", report)
	}
	if !strings.Contains(report, "FAIL BenchmarkA") {
		t.Fatalf("regressed benchmark not flagged:\n%s", report)
	}
	if !strings.Contains(report, "ok   BenchmarkB") {
		t.Fatalf("improved benchmark wrongly flagged:\n%s", report)
	}
}

func TestCompareMissingBenchmarkFails(t *testing.T) {
	dir := t.TempDir()
	oldP := writeRecords(t, dir, "old.json",
		`[{"name":"BenchmarkA","iterations":10,"ns_per_op":1000},
		  {"name":"BenchmarkGone","iterations":10,"ns_per_op":500}]`)
	newP := writeRecords(t, dir, "new.json",
		`[{"name":"BenchmarkA","iterations":10,"ns_per_op":1000}]`)
	report, fail, err := compareFiles(oldP, newP, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !fail {
		t.Fatalf("vanished benchmark passed:\n%s", report)
	}
	if !strings.Contains(report, "BenchmarkGone") || !strings.Contains(report, "missing") {
		t.Fatalf("report does not name the missing benchmark:\n%s", report)
	}
}

func TestCompareMissingMetricFails(t *testing.T) {
	dir := t.TempDir()
	oldP := writeRecords(t, dir, "old.json",
		`[{"name":"BenchmarkA","iterations":10,"ns_per_op":1000,"metrics":{"events/s":500,"cfg/s":9}}]`)
	newP := writeRecords(t, dir, "new.json",
		`[{"name":"BenchmarkA","iterations":10,"ns_per_op":1000,"metrics":{"events/s":510}}]`)
	report, fail, err := compareFiles(oldP, newP, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !fail {
		t.Fatalf("vanished custom metric passed silently:\n%s", report)
	}
	if !strings.Contains(report, `metric "cfg/s"`) || !strings.Contains(report, "missing from") {
		t.Fatalf("report does not name the vanished metric:\n%s", report)
	}
	// Shared metrics are informational, never a failure by themselves.
	if !strings.Contains(report, "events/s") {
		t.Fatalf("report omits the shared metric:\n%s", report)
	}

	// The other direction — a metric only the new file records — is an
	// error too: the baseline never measured it.
	report, fail, err = compareFiles(newP, oldP, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !fail || !strings.Contains(report, `metric "cfg/s"`) {
		t.Fatalf("metric present only in the new file passed silently:\n%s", report)
	}
}

func TestCompareZeroBaselineFails(t *testing.T) {
	dir := t.TempDir()
	oldP := writeRecords(t, dir, "old.json",
		`[{"name":"BenchmarkA","iterations":10,"ns_per_op":0}]`)
	newP := writeRecords(t, dir, "new.json",
		`[{"name":"BenchmarkA","iterations":10,"ns_per_op":1000}]`)
	report, fail, err := compareFiles(oldP, newP, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !fail {
		t.Fatalf("zero ns/op baseline passed silently:\n%s", report)
	}
	if strings.Contains(report, "Inf") || strings.Contains(report, "NaN") {
		t.Fatalf("report leaked a division by zero:\n%s", report)
	}
	if !strings.Contains(report, "non-positive baseline") {
		t.Fatalf("report does not explain the zero baseline:\n%s", report)
	}
}

func TestCompareUnreadableInput(t *testing.T) {
	dir := t.TempDir()
	okP := writeRecords(t, dir, "ok.json",
		`[{"name":"BenchmarkA","iterations":10,"ns_per_op":1000}]`)
	if _, _, err := compareFiles(filepath.Join(dir, "absent.json"), okP, 10); err == nil {
		t.Fatal("missing old file not reported")
	}
	badP := writeRecords(t, dir, "bad.json", `{not json`)
	if _, _, err := compareFiles(okP, badP, 10); err == nil {
		t.Fatal("malformed new file not reported")
	}
	emptyP := writeRecords(t, dir, "empty.json", `[]`)
	if _, _, err := compareFiles(okP, emptyP, 10); err == nil {
		t.Fatal("empty record file not reported")
	}
}

// TestCompareIgnoresProcsSuffix is the multi-core host case: a run at
// GOMAXPROCS = 2 names every benchmark with a "-2" suffix, which a record
// taken at GOMAXPROCS = 1 lacks. The names must still match, also against
// records written before they carried procs (BenchmarkA's baseline).
func TestCompareIgnoresProcsSuffix(t *testing.T) {
	r, ok := parse("BenchmarkModelCheck/engine/n=4,K=5  12  97830925 ns/op")
	if !ok || r.Name != "BenchmarkModelCheck/engine/n=4,K=5" || r.Procs != 1 {
		t.Fatalf("GOMAXPROCS=1 line: %+v", r)
	}
	r, ok = parse("BenchmarkParallelSweepContention/workers=16-2  5949  203557 ns/op")
	if !ok || r.Name != "BenchmarkParallelSweepContention/workers=16" || r.Procs != 2 {
		t.Fatalf("GOMAXPROCS=2 line: %+v", r)
	}

	dir := t.TempDir()
	oldP := writeRecords(t, dir, "old.json",
		`[{"name":"BenchmarkA/n=8","iterations":10,"ns_per_op":1000},
		  {"name":"BenchmarkB","procs":1,"iterations":10,"ns_per_op":1000}]`)
	newP := writeRecords(t, dir, "new.json",
		`[{"name":"BenchmarkA/n=8","procs":2,"iterations":10,"ns_per_op":1100},
		  {"name":"BenchmarkB","procs":1,"iterations":10,"ns_per_op":900},
		  {"name":"BenchmarkB","procs":2,"iterations":10,"ns_per_op":5000}]`)
	report, fail, err := compareFiles(oldP, newP, 50)
	if err != nil {
		t.Fatal(err)
	}
	if fail || strings.Contains(report, "missing") {
		t.Fatalf("suffixed names did not match the bare records:\n%s", report)
	}
	if !strings.Contains(report, "ok   BenchmarkA/n=8") || !strings.Contains(report, "ok   BenchmarkB") {
		t.Fatalf("report omits a matched benchmark:\n%s", report)
	}
	if !strings.Contains(report, "GOMAXPROCS 1 -> 2") {
		t.Fatalf("GOMAXPROCS difference not noted:\n%s", report)
	}
	// Of BenchmarkB's two runs, the one at the baseline's GOMAXPROCS is
	// the one compared.
	if !strings.Contains(report, " 900 ns/op") {
		t.Fatalf("BenchmarkB not compared at GOMAXPROCS 1:\n%s", report)
	}
}

// TestReadResultsStampsHardware: every record carries the goos, goarch
// and cpu header lines printed above it and the CPU count, and the input
// is echoed unchanged.
func TestReadResultsStampsHardware(t *testing.T) {
	in := "goos: linux\ngoarch: amd64\npkg: ssrmin\ncpu: Test CPU @ 2.00GHz\n" +
		"BenchmarkA-2  10  1000 ns/op\n" +
		"cpu: Other CPU\n" +
		"BenchmarkB  10  2000 ns/op\nPASS\n"
	var echo strings.Builder
	rs, err := readResults(strings.NewReader(in), &echo, 4)
	if err != nil {
		t.Fatal(err)
	}
	if echo.String() != in {
		t.Fatalf("echo = %q, want the input unchanged", echo.String())
	}
	want := []Hardware{
		{GOOS: "linux", GOARCH: "amd64", CPU: "Test CPU @ 2.00GHz", NumCPU: 4},
		{GOOS: "linux", GOARCH: "amd64", CPU: "Other CPU", NumCPU: 4},
	}
	if len(rs) != len(want) {
		t.Fatalf("parsed %d results, want %d: %+v", len(rs), len(want), rs)
	}
	for i, r := range rs {
		if r.Hardware != want[i] {
			t.Errorf("%s hardware = %+v, want %+v", r.Name, r.Hardware, want[i])
		}
	}
}

// TestCompareNotesCPU: a CPU difference is noted on the row, like a
// GOMAXPROCS difference, and is not a failure; a record without a cpu
// (written before records carried one) notes nothing.
func TestCompareNotesCPU(t *testing.T) {
	dir := t.TempDir()
	oldP := writeRecords(t, dir, "old.json",
		`[{"name":"BenchmarkA","iterations":10,"ns_per_op":1000,"cpu":"CPU A","num_cpu":2},
		  {"name":"BenchmarkB","iterations":10,"ns_per_op":1000}]`)
	newP := writeRecords(t, dir, "new.json",
		`[{"name":"BenchmarkA","iterations":10,"ns_per_op":1000,"cpu":"CPU B","num_cpu":8},
		  {"name":"BenchmarkB","iterations":10,"ns_per_op":1000,"cpu":"CPU B"}]`)
	report, fail, err := compareFiles(oldP, newP, 10)
	if err != nil {
		t.Fatal(err)
	}
	if fail {
		t.Fatalf("a CPU difference failed the comparison:\n%s", report)
	}
	if strings.Count(report, "cpu CPU A -> CPU B") != 1 {
		t.Fatalf("CPU difference not noted exactly once:\n%s", report)
	}
}

// TestCommittedRecordsLoad: the committed BENCH_*.json files, written
// before records carried a hardware stamp, still load.
func TestCommittedRecordsLoad(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed records found: %v", err)
	}
	for _, p := range paths {
		if _, err := loadResults(p); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
}
