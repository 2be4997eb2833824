package trace

import (
	"strings"
	"testing"

	"ssrmin/internal/core"
	"ssrmin/internal/daemon"
	"ssrmin/internal/statemodel"
	"ssrmin/internal/verify"
)

func runSSRmin(t *testing.T, steps int) *Recorder[core.State] {
	t.Helper()
	a := core.New(5, 6)
	init := statemodel.Config[core.State]{
		{X: 3, TRA: true}, {X: 3}, {X: 3}, {X: 3}, {X: 3},
	}
	sim := statemodel.NewSimulator[core.State](a, daemon.NewCentralLowest(), init)
	var rec Recorder[core.State]
	rec.Attach(sim)
	sim.Run(steps)
	return &rec
}

// TestGoldenFigure4 renders the first 16 steps of the execution of Figure
// 4 and compares against the figure, row by row.
func TestGoldenFigure4(t *testing.T) {
	rec := runSSRmin(t, 15)
	var b strings.Builder
	if err := RenderSSRmin(&b, rec); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := `Step  P0          P1          P2          P3          P4
1     3.0.1PS/1   3.0.0       3.0.0       3.0.0       3.0.0
2     3.1.0PS     3.0.0/3     3.0.0       3.0.0       3.0.0
3     3.1.0P/2    3.0.1S      3.0.0       3.0.0       3.0.0
4     4.0.0       3.0.1PS/1   3.0.0       3.0.0       3.0.0
5     4.0.0       3.1.0PS     3.0.0/3     3.0.0       3.0.0
6     4.0.0       3.1.0P/2    3.0.1S      3.0.0       3.0.0
7     4.0.0       4.0.0       3.0.1PS/1   3.0.0       3.0.0
8     4.0.0       4.0.0       3.1.0PS     3.0.0/3     3.0.0
9     4.0.0       4.0.0       3.1.0P/2    3.0.1S      3.0.0
10    4.0.0       4.0.0       4.0.0       3.0.1PS/1   3.0.0
11    4.0.0       4.0.0       4.0.0       3.1.0PS     3.0.0/3
12    4.0.0       4.0.0       4.0.0       3.1.0P/2    3.0.1S
13    4.0.0       4.0.0       4.0.0       4.0.0       3.0.1PS/1
14    4.0.0/3     4.0.0       4.0.0       4.0.0       3.1.0PS
15    4.0.1S      4.0.0       4.0.0       4.0.0       3.1.0P/2
16    4.0.1PS     4.0.0       4.0.0       4.0.0       4.0.0
`
	gl, wl := strings.Split(strings.TrimSpace(got), "\n"), strings.Split(strings.TrimSpace(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("Figure 4: %d lines, want %d.\ngot:\n%s", len(gl), len(wl), got)
	}
	for i := range wl {
		if gf, wf := strings.Fields(gl[i]), strings.Fields(wl[i]); !equalFields(gf, wf) {
			t.Errorf("Figure 4 line %d: got %v, want %v", i, gf, wf)
		}
	}
}

func equalFields(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestGoldenFigure1 checks the token-letter rendering of the first rows of
// Figure 1.
func TestGoldenFigure1(t *testing.T) {
	rec := runSSRmin(t, 5)
	var b strings.Builder
	if err := RenderTokens(&b, rec); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	// The paper's Figure 1 collapses the handshake steps; here we assert
	// its structural property over the full execution: at every row there
	// is exactly one P and exactly one S (possibly on one process).
	for i, line := range lines[1:] {
		p := strings.Count(line, "P")
		s := strings.Count(line, "S")
		if p < 1 || s != 1 {
			t.Errorf("row %d: %q has %d P / %d S", i+1, line, p, s)
		}
	}
}

func TestRecorderCaptures(t *testing.T) {
	rec := runSSRmin(t, 7)
	if len(rec.Moves) != 7 {
		t.Fatalf("Steps = %d", len(rec.Moves))
	}
	if len(rec.Configs) != 8 {
		t.Fatalf("Configs = %d", len(rec.Configs))
	}
	// Each transition has exactly one move under the central daemon from a
	// legitimate start.
	for t2, ms := range rec.Moves {
		if len(ms) != 1 {
			t.Fatalf("transition %d has %d moves", t2, len(ms))
		}
	}
}

func TestWriteCSV(t *testing.T) {
	rec := runSSRmin(t, 3)
	var b strings.Builder
	if err := WriteCSV(&b, rec); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	// Header + 4 configs × 5 processes.
	if len(lines) != 1+4*5 {
		t.Fatalf("CSV has %d lines, want 21", len(lines))
	}
	if lines[0] != "step,process,x,rts,tra,primary,secondary,rule" {
		t.Errorf("header = %q", lines[0])
	}
	// First record: step 0, process 0, x=3, tra=1, holds both tokens,
	// executes rule 1.
	if lines[1] != "0,0,3,0,1,1,1,1" {
		t.Errorf("first record = %q", lines[1])
	}
}

func TestEmptyRecorderRenders(t *testing.T) {
	var rec Recorder[core.State]
	var b strings.Builder
	if err := RenderSSRmin(&b, &rec); err != nil || b.Len() != 0 {
		t.Errorf("empty render: err=%v out=%q", err, b.String())
	}
	if err := RenderTokens(&b, &rec); err != nil || b.Len() != 0 {
		t.Errorf("empty render tokens: err=%v out=%q", err, b.String())
	}
}

func TestRenderTimeline(t *testing.T) {
	var tl verify.Timeline
	tl.Record(0, 1)
	tl.Record(5, 0)
	tl.Record(7, 2)
	tl.Close(10)
	var b strings.Builder
	if err := RenderTimeline(&b, &tl, 20); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("timeline output:\n%s", b.String())
	}
	strip := lines[0]
	if len(strip) != 20 {
		t.Fatalf("strip width %d", len(strip))
	}
	// 0..5 -> '1' (10 chars), 5..7 -> '.' (4 chars), 7..10 -> '2' (6 chars).
	if !strings.HasPrefix(strip, "1111111111") {
		t.Errorf("strip = %q", strip)
	}
	if !strings.Contains(strip, ".") || !strings.HasSuffix(strip, "222222") {
		t.Errorf("strip = %q", strip)
	}
}

func TestRenderTimelineEmpty(t *testing.T) {
	var tl verify.Timeline
	tl.Close(0)
	var b strings.Builder
	if err := RenderTimeline(&b, &tl, 30); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "empty") {
		t.Errorf("output = %q", b.String())
	}
}

func TestGlyphs(t *testing.T) {
	cases := map[int]byte{-1: ' ', 0: '.', 3: '3', 9: '9', 12: '+'}
	for count, want := range cases {
		if got := glyph(count); got != want {
			t.Errorf("glyph(%d) = %q, want %q", count, got, want)
		}
	}
}
