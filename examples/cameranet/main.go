// Cameranet is the paper's motivating application: a self-organizing
// multi-node security-camera system with continuous observation. Each
// station runs one SSRmin process on the live ring; a station actively
// monitors exactly while it is privileged (holds a token), draining its
// battery, and recharges while idle. Mutual inclusion guarantees that at
// every instant at least one camera is watching — there is no coverage
// gap — while the rotation keeps every battery alive.
//
// Run: go run ./examples/cameranet [-stations 6] [-seconds 3]
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"ssrmin"
	"ssrmin/internal/inclusion"
	"ssrmin/internal/verify"
)

func main() {
	var (
		stations = flag.Int("stations", 6, "number of camera stations (≥ 3)")
		seconds  = flag.Float64("seconds", 3, "wall-clock seconds to run")
	)
	flag.Parse()
	if *stations < 3 {
		fmt.Fprintf(os.Stderr, "-stations %d: SSRmin needs at least 3 stations\n", *stations)
		os.Exit(2)
	}

	fmt.Printf("deploying %d camera stations on a bidirectional ring...\n", *stations)

	ring := ssrmin.NewLiveRing(*stations,
		ssrmin.WithDelay(time.Millisecond),
		ssrmin.WithJitter(300*time.Microsecond),
		ssrmin.WithRefresh(4*time.Millisecond),
		ssrmin.WithSeed(time.Now().UnixNano()),
	)

	tracker := inclusion.NewTracker(*stations)
	start := time.Now()
	var mu sync.Mutex // serializes battery bookkeeping
	ring.OnPrivilege(func(node int, privileged bool) {
		mu.Lock()
		tracker.Set(node, privileged, time.Since(start).Seconds())
		mu.Unlock()
	})

	ring.Start()
	defer ring.Stop()

	// Battery model: active stations drain 5 units/s, idle ones harvest
	// 1.5 units/s. With n ≥ 3 stations and at most 2 active, the fleet is
	// sustainable whenever (n-2)·1.5 > 2·5/… — here we just watch it.
	energy := inclusion.NewEnergyModel(*stations, 100, 5, 1.5)
	tick := 10 * time.Millisecond
	deadline := time.Now().Add(time.Duration(*seconds * float64(time.Second)))
	active := make([]bool, *stations)
	for time.Now().Before(deadline) {
		time.Sleep(tick)
		mu.Lock()
		for i := range active {
			active[i] = false
		}
		for _, h := range tracker.ActiveSet() {
			active[h] = true
		}
		mu.Unlock()
		energy.Elapse(tick.Seconds(), active)
	}
	end := time.Since(start).Seconds()

	// Report.
	fmt.Printf("\nran %.1fs; %d privilege rotations executed\n", end, ring.RuleExecutions())

	gaps := tracker.CoverageGaps(0.05, end) // skip the 50ms boot blip
	fmt.Printf("coverage gaps after boot: %d", len(gaps))
	total := 0.0
	for _, g := range gaps {
		total += g.Len()
	}
	fmt.Printf(" (total %.1fms)\n", 1000*total)
	if len(gaps) == 0 {
		fmt.Println("→ CONTINUOUS OBSERVATION: at every instant some camera was active.")
	} else {
		fmt.Println("→ unexpected gaps; see the paper's Theorem 3 — this should not happen")
		os.Exit(1)
	}

	duty := tracker.DutyCycles(0, end)
	duties := append([]float64(nil), duty...)
	rot := tracker.Rotation(0.05, end)
	fmt.Println("\nstation  duty cycle  battery")
	levels := energy.Levels()
	for i, d := range duty {
		bar := int(d * 40)
		fmt.Printf("cam-%-3d  %6.1f%%     %5.1f  %s\n", i, 100*d, levels[i], bars(bar))
	}
	fmt.Printf("\nminimum battery level: %.1f/100 (never depleted: %v)\n",
		energy.MinLevel(), !energy.Depleted())
	fmt.Printf("fairness (Jain index of duty cycles): %.3f (1.0 = perfectly even)\n",
		verify.JainFairness(duties))
	fmt.Printf("rotation: mean gap between a station's turns %.0fms, max %.0fms\n",
		1000*rot.MeanGap, 1000*rot.MaxGap)
	fmt.Println("each station monitors in turn; the rest recharge — the duty cycle")
	fmt.Printf("per station is between 1/n = %.0f%% and 2/n = %.0f%% (1–2 tokens over %d stations).\n",
		100/float64(*stations), 100*2/float64(*stations), *stations)
}

func bars(n int) string {
	out := ""
	for i := 0; i < n; i++ {
		out += "#"
	}
	return out
}
