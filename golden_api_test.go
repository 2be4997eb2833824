package ssrmin_test

// Golden pin of the public constructors' observable behavior: seeded runs
// configured through the functional options must produce bit-identical
// executions. The golden files were generated with go test -run GoldenAPI
// -update and must never change without a deliberate semantic break.

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ssrmin"
)

var update = flag.Bool("update", false, "rewrite golden files")

func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if string(want) != got {
		t.Errorf("%s mismatch.\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// simTraceCSV runs a recorded 15-step default simulation and returns its
// CSV trace — the Figure 4 execution through the public API.
func simTraceCSV(t *testing.T, opts ...ssrmin.Option) string {
	t.Helper()
	sim := ssrmin.NewSimulation(5, opts...)
	sim.Run(15)
	var b strings.Builder
	if err := sim.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestGoldenAPISimulation(t *testing.T) {
	golden(t, "api_sim_default.csv", simTraceCSV(t, ssrmin.WithRecording()))

	alg := ssrmin.New(5, 7)
	init := ssrmin.RandomConfig(alg, rand.New(rand.NewSource(2)))
	golden(t, "api_sim_random.csv", simTraceCSV(t,
		ssrmin.WithK(7),
		ssrmin.WithDaemon(ssrmin.DistributedDaemon(3, 0.5)),
		ssrmin.WithInitial(init),
		ssrmin.WithRecording(),
	))
}

// mpSummary fingerprints a message-passing run: final states, census,
// rule executions and message statistics — everything seeded randomness
// flows into.
func mpSummary(m *ssrmin.MPSimulation) string {
	var b strings.Builder
	m.Run(5)
	fmt.Fprintf(&b, "states: %v\n", m.States())
	fmt.Fprintf(&b, "census: %d holders=%v coherent=%v\n", m.Census(), m.Holders(), m.Coherent())
	fmt.Fprintf(&b, "rules:  %d\n", m.RuleExecutions())
	fmt.Fprintf(&b, "sent:   %d\n", m.MessagesSent())
	tl := m.Timeline()
	fmt.Fprintf(&b, "span:   min=%d max=%d zero=%.6f\n", tl.MinCount(), tl.MaxCount(), tl.Duration(0))
	return b.String()
}

func TestGoldenAPIMPSimulation(t *testing.T) {
	golden(t, "api_mp_default.txt", mpSummary(ssrmin.NewMPSimulation(5, ssrmin.WithSeed(1))))

	alg := ssrmin.New(5, 6)
	init := ssrmin.RandomConfig(alg, rand.New(rand.NewSource(9)))
	golden(t, "api_mp_random.txt", mpSummary(ssrmin.NewMPSimulation(5,
		ssrmin.WithSeed(4),
		ssrmin.WithLoss(0.05),
		ssrmin.WithHold(20*time.Millisecond),
		ssrmin.WithInitial(init),
		ssrmin.WithIncoherentCaches(),
	)))
}
