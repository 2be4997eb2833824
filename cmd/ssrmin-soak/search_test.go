package main

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ssrmin/internal/crosscheck"
	"ssrmin/internal/scenario"
)

func searchBase() crosscheck.Scenario {
	return crosscheck.Scenario{
		Name:    "search-test",
		N:       4,
		K:       12,
		Horizon: 8,
		Settle:  4,
		Link:    scenario.Link{Delay: 0.01, Jitter: 0.002},
		Engines: []string{crosscheck.EngineState, crosscheck.EngineMsgnet},
	}
}

// TestMutationsStayValid: every mutation trajectory must stay inside the
// validated scenario space (possibly by falling back to the unmutated
// candidate), since an invalid candidate would waste a budgeted run.
func TestMutationsStayValid(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cur := searchBase()
	if err := cur.Validate(); err != nil {
		t.Fatal(err)
	}
	sawFaults := false
	for i := 0; i < 500; i++ {
		cand := cloneScenario(cur)
		mutateScenario(rng, &cand, true)
		if cand.Validate() == nil {
			cur = cand
		}
		check := cloneScenario(cur)
		if err := check.Validate(); err != nil {
			t.Fatalf("mutation %d left an invalid scenario: %v", i, err)
		}
		if len(cur.Faults) > 0 {
			sawFaults = true
		}
	}
	if !sawFaults {
		t.Fatal("500 mutations never grew a fault script")
	}
}

// TestMutationCutsArePaired: no mutation may introduce a cut without a
// heal — a permanently severed ring cannot circulate a token, so an
// unpaired cut would manufacture a false violation.
func TestMutationCutsArePaired(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		sc := searchBase()
		if err := sc.Validate(); err != nil {
			t.Fatal(err)
		}
		addRandomFault(rng, &sc, true)
		cuts, heals := 0, 0
		for _, f := range sc.Faults {
			switch f.Type {
			case "cut":
				cuts++
			case "heal":
				heals++
			}
		}
		if cuts != heals {
			t.Fatalf("unpaired cut after addRandomFault: %+v", sc.Faults)
		}
	}
}

// TestScoreRanksViolationsAboveNearMisses pins the search objective: one
// real violation must outrank any accumulation of gradient terms.
func TestScoreRanksViolationsAboveNearMisses(t *testing.T) {
	base := searchBase()
	nearMiss := crosscheck.Report{
		Scenario: base,
		Engines: []crosscheck.EngineResult{
			{Engine: crosscheck.EngineMsgnet, MaxSeparation: 1, LastBad: base.Horizon * 0.9},
		},
	}
	violating := crosscheck.Report{
		Scenario: base,
		Engines: []crosscheck.EngineResult{
			{Engine: crosscheck.EngineMsgnet, Violations: []crosscheck.Violation{
				{Engine: crosscheck.EngineMsgnet, Kind: "census", At: 5},
			}},
		},
	}
	near, bad := score(nearMiss), score(violating)
	if near <= 0 {
		t.Fatalf("near-miss gradient empty: %d", near)
	}
	if near >= violationScore {
		t.Fatalf("near-miss score %d reaches the violation band", near)
	}
	if bad < violationScore || bad <= near {
		t.Fatalf("violation score %d does not dominate near-miss %d", bad, near)
	}
}

// TestSearchDeterministicTrajectory runs two tiny searches with the same
// seed end to end (including real crosscheck runs) and requires identical
// outcomes.
func TestSearchDeterministicTrajectory(t *testing.T) {
	if testing.Short() {
		t.Skip("full crosscheck runs")
	}
	do := func(path string) string {
		out, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer out.Close()
		code := run([]string{
			"-search", "-search-budget", "4", "-search-restarts", "1",
			"-n", "4", "-engines", "state,msgnet", "-horizon", "6",
			"-settle", "3", "-churn", "-seed", "7", "-shrink=false",
		}, out, out)
		if code != 0 {
			t.Fatalf("search exited %d", code)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	dir := t.TempDir()
	a := do(filepath.Join(dir, "a.txt"))
	b := do(filepath.Join(dir, "b.txt"))
	if a != b {
		t.Fatalf("same-seed searches diverged:\n%s\nvs\n%s", a, b)
	}
}

// TestRejectsBadTimings: a negative or non-finite link timing or horizon,
// a probability outside [0, 1] or a NaN settle window is a usage error —
// one stderr line and exit 2 — not a panic inside a sweep worker or a run
// that never ends.
func TestRejectsBadTimings(t *testing.T) {
	for _, args := range [][]string{
		{"-delay", "-1"}, {"-delay", "NaN"}, {"-jitter", "-1"}, {"-refresh", "-1"},
		{"-horizon", "NaN"}, {"-horizon", "+Inf"}, {"-loss", "NaN"}, {"-dup", "2"},
		{"-settle", "NaN"},
		// The live engine's clock counts whole nanoseconds in an int64.
		{"-engines", "live", "-delay", "1e-10", "-jitter", "0"},
		{"-engines", "live", "-jitter", "1e-10"},
		{"-engines", "live", "-refresh", "1e-10"},
		{"-engines", "live", "-delay", "1e10"},
		{"-engines", "state,live", "-refresh", "1e12"},
	} {
		errPath := filepath.Join(t.TempDir(), "stderr")
		errw, err := os.Create(errPath)
		if err != nil {
			t.Fatal(err)
		}
		code := run(append([]string{"-seeds", "1", "-engines", "msgnet"}, args...), errw, errw)
		errw.Close()
		msg, err := os.ReadFile(errPath)
		if err != nil {
			t.Fatal(err)
		}
		if code != 2 || strings.Count(string(msg), "\n") != 1 {
			t.Errorf("%v: exit %d, output %q; want exit 2 and one line", args, code, msg)
		}
	}
}
