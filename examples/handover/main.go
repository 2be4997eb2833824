// Handover contrasts the graceful handover of SSRmin with the naive
// handover of Dijkstra's token ring when both run on the live engine, an
// asynchronous message-passing deployment paced against the wall clock
// (link delays, one frame per direction): the naive ring goes dark
// between release and receipt of its token, SSRmin never does. This is
// the live, wall-clock version of Figures 11 and 13.
//
// Run: go run ./examples/handover [-ms 500]
package main

import (
	"flag"
	"fmt"
	"time"

	"ssrmin"
	"ssrmin/internal/dijkstra"
	"ssrmin/internal/runtime"
)

func main() {
	var ms = flag.Int("ms", 500, "observation window per algorithm (milliseconds)")
	flag.Parse()
	window := time.Duration(*ms) * time.Millisecond

	const n, k = 5, 6
	fmt.Printf("live ring, n=%d, 1ms links, sampling the privilege census every 100µs\n\n", n)

	// --- naive: Dijkstra SSToken through the same transform ---
	dalg := dijkstra.New(n, k)
	dring := runtime.NewEngine[dijkstra.State](dalg, dalg.InitialLegitimate(), runtime.Options[dijkstra.State]{
		Delay:          time.Millisecond,
		Jitter:         300 * time.Microsecond,
		Refresh:        4 * time.Millisecond,
		Seed:           1,
		CoherentCaches: true,
	})
	dring.Start()
	dstats := dring.WatchCensus(dijkstra.HasToken, window, 100*time.Microsecond)
	dring.Stop()

	fmt.Println("Dijkstra SSToken (mutual exclusion only):")
	report(dstats)

	// --- graceful: SSRmin ---
	ring := ssrmin.NewLiveRing(n,
		ssrmin.WithDelay(time.Millisecond),
		ssrmin.WithJitter(300*time.Microsecond),
		ssrmin.WithRefresh(4*time.Millisecond),
		ssrmin.WithSeed(1),
	)
	ring.Start()
	stats := ring.WatchCensus(window, 100*time.Microsecond)
	ring.Stop()

	fmt.Println("\nSSRmin (mutual inclusion with graceful handover):")
	report(stats)

	switch {
	case dstats.Min > 0:
		fmt.Println("\n(unusual: the naive ring showed no gap in this short window — rerun)")
	case stats.Min >= 1 && stats.Max <= 2:
		fmt.Println("\n→ SSRmin never left the 1–2 holder regime; the naive token ring")
		fmt.Println("  was caught with zero holders. That difference is the graceful handover.")
	default:
		fmt.Println("\n→ unexpected SSRmin census excursion — see Theorem 3")
	}
}

func report(s runtime.CensusStats) {
	fmt.Printf("  samples: %d, census range [%d, %d], distinct holders: %d\n",
		s.Samples, s.Min, s.Max, s.DistinctHolders)
	for c := 0; c <= s.Max; c++ {
		if cnt, ok := s.At[c]; ok {
			fmt.Printf("    %d holder(s): %5.1f%% of samples\n", c, 100*float64(cnt)/float64(s.Samples))
		}
	}
}
