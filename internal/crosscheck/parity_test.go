package crosscheck

import (
	"fmt"
	"testing"

	"ssrmin/internal/core"
	"ssrmin/internal/cst"
	"ssrmin/internal/scenario"
)

// TestMsgnetTierMatchesScenarioRun: crosscheck's msgnet tier and
// scenario.Run read a fault script the same way. Given the same seed,
// link, start and a script using all nine fault types, both execute the
// same rules and the same message traffic.
func TestMsgnetTierMatchesScenarioRun(t *testing.T) {
	link := scenario.Link{Delay: 0.01, Jitter: 0.002, Loss: 0.05, Dup: 0.1, Corrupt: 0.02}
	faults := []scenario.Fault{
		{At: 1, Type: "states", Count: 2},
		{At: 2, Type: "caches", Count: 3},
		{At: 3, Type: "cut", Link: 1},
		{At: 4, Type: "heal", Link: 1},
		{At: 5, Type: "loss-on"},
		{At: 6, Type: "loss-off"},
		{At: 7, Type: "join", Node: 2},
		{At: 8, Type: "leave", Node: 3},
		{At: 9, Type: "splice", Node: 1},
		{At: 9.5, Type: "cut", Link: 4},
		{At: 10, Type: "states", Count: 3},
		{At: 10.5, Type: "caches", Count: 2},
	}
	var ring *cst.Ring[core.State]
	hooks.msgnet = func(_ *holderTracker, r *cst.Ring[core.State]) { ring = r }
	defer func() { hooks.msgnet = nil }()

	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			ring = nil
			want, err := scenario.Scenario{
				Name: "parity", N: 5, K: 9, Horizon: 14, Link: link, Seed: seed,
				RandomStart: true, IncoherentCaches: true, Faults: faults,
			}.Run()
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Run(Scenario{
				Name: "parity", N: 5, K: 9, Horizon: 14, Link: link, Seed: seed,
				RandomStart: true, IncoherentCaches: true, Faults: faults,
				Engines: []string{EngineMsgnet},
			})
			if err != nil {
				t.Fatal(err)
			}
			if ring == nil {
				t.Fatal("msgnet tier never observed its ring")
			}
			if got := rep.Engines[0].RuleExecutions; got != int64(want.RuleExecutions) {
				t.Errorf("rule executions: crosscheck %d, scenario %d", got, want.RuleExecutions)
			}
			if got := ring.Net.Stats(); got != want.Net {
				t.Errorf("net stats:\ncrosscheck %+v\nscenario   %+v", got, want.Net)
			}
		})
	}
}
