// Faultdemo exercises self-stabilization: a running SSRmin ring (in the
// deterministic message-passing simulation) is repeatedly hit with
// transient faults — corrupted process states, corrupted neighbor caches,
// and bursts of 100% message loss — and each time returns on its own to
// the legitimate 1–2 token regime. No reset, no coordinator.
//
// Run: go run ./examples/faultdemo [-rounds 5] [-seed 7]
package main

import (
	"flag"
	"fmt"

	"ssrmin"
	"ssrmin/internal/core"
	"ssrmin/internal/fault"
	"ssrmin/internal/msgnet"
)

func main() {
	var (
		rounds = flag.Int("rounds", 5, "fault rounds to inject")
		seed   = flag.Int64("seed", 7, "random seed")
	)
	flag.Parse()

	const n, k = 6, 8
	m := ssrmin.NewMPSimulation(n, ssrmin.WithK(k), ssrmin.WithSeed(*seed))
	inj := fault.NewInjector(*seed)
	draw := core.New(n, k).RandomState

	fmt.Printf("SSRmin ring, n=%d K=%d, 10ms links, in the message-passing model\n\n", n, k)
	m.Run(2)
	fmt.Printf("t=%6.2fs  booted; census=%d holders=%v\n", now(m), m.Census(), m.Holders())

	for round := 1; round <= *rounds; round++ {
		// Inject: corrupt two process states and two caches.
		hit := fault.CorruptStates[core.State](inj, m.Ring(), 2, draw)
		fault.CorruptCaches[core.State](inj, m.Ring(), 2, draw)
		fmt.Printf("\nround %d: corrupted states of processes %v and two caches\n", round, hit)
		fmt.Printf("t=%6.2fs  census immediately after fault: %d\n", now(m), m.Census())

		// Watch until the census is back in [1,2] and stays there for 5
		// simulated seconds.
		recoveredAt := -1.0
		lastBad := now(m)
		m.Ring().Net.Observer = func(t msgnet.Time) {
			c := m.Ring().Census(core.HasToken)
			if c < 1 || c > 2 {
				lastBad = float64(t)
			}
		}
		deadline := now(m) + 30
		for now(m) < deadline {
			m.Run(now(m) + 1)
			if now(m)-lastBad >= 5 {
				recoveredAt = lastBad
				break
			}
		}
		m.Ring().Net.Observer = nil
		if recoveredAt < 0 {
			fmt.Printf("t=%6.2fs  NOT RECOVERED (unexpected — Theorem 4 violated?)\n", now(m))
			return
		}
		fmt.Printf("t=%6.2fs  recovered: census back in [1,2] since t=%.2fs; holders=%v\n",
			now(m), recoveredAt, m.Holders())
	}

	fmt.Printf("\nall %d fault rounds healed autonomously — self-stabilization in action.\n", *rounds)
	fmt.Printf("total rule executions: %d, messages sent: %d\n", m.RuleExecutions(), m.MessagesSent())
}

func now(m *ssrmin.MPSimulation) float64 { return float64(m.Ring().Net.Now()) }
