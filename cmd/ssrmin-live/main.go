// Command ssrmin-live runs an SSRmin ring on the live engine, paced
// against the wall clock, and animates the privilege positions in the
// terminal — the wall-clock demonstration of the graceful handover.
// Compare with `-alg sstoken` to watch the naive ring go dark between
// hops.
//
// Examples:
//
//	ssrmin-live -n 8 -seconds 5
//	ssrmin-live -n 8 -alg sstoken -seconds 5
//	ssrmin-live -n 8 -metrics 127.0.0.1:8090   # serve /metrics while running
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"ssrmin"
	"ssrmin/internal/cliconf"
	"ssrmin/internal/dijkstra"
	"ssrmin/internal/obs"
	"ssrmin/internal/runtime"
)

func main() {
	var cc cliconf.Config
	cc.BindRing(flag.CommandLine, 8)
	cc.BindRandom(flag.CommandLine, 0)
	cc.BindRuntime(flag.CommandLine)
	var (
		algF    = flag.String("alg", "ssrmin", "algorithm: ssrmin | sstoken")
		seconds = flag.Float64("seconds", 5, "wall-clock seconds to animate")
		fps     = flag.Int("fps", 20, "animation frames per second")
		metrics = flag.String("metrics", "", "serve /metrics and /debug/vars on this address while running")
	)
	flag.Parse()
	if cc.Seed == 0 {
		cc.Seed = time.Now().UnixNano()
	}
	frames, err := checkFlags(&cc, *seconds, *fps)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var observer *obs.Observer
	if *metrics != "" {
		observer = obs.New(nil)
		bound, shutdown, err := obs.Serve(*metrics, observer)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer shutdown()
		fmt.Printf("metrics on http://%s/metrics\n", bound)
	}

	var holders func() []int
	var stop func()
	switch *algF {
	case "ssrmin":
		opts := []ssrmin.Option{
			ssrmin.WithK(cc.K),
			ssrmin.WithDelay(2 * time.Millisecond),
			ssrmin.WithJitter(500 * time.Microsecond),
			ssrmin.WithRefresh(8 * time.Millisecond),
			ssrmin.WithSeed(cc.Seed),
			ssrmin.WithWorkers(cc.Workers),
		}
		if observer != nil {
			opts = append(opts, ssrmin.WithObserver(observer))
		}
		ring := ssrmin.NewLiveRing(cc.N, opts...)
		ring.Start()
		holders, stop = ring.Holders, ring.Stop
	case "sstoken":
		alg := dijkstra.New(cc.N, cc.K)
		eng := runtime.NewEngine[dijkstra.State](alg, alg.InitialLegitimate(), runtime.Options[dijkstra.State]{
			Delay:          2 * time.Millisecond,
			Jitter:         500 * time.Microsecond,
			Refresh:        8 * time.Millisecond,
			Seed:           cc.Seed,
			CoherentCaches: true,
			Workers:        cc.Workers,
		})
		if observer != nil {
			eng.SetObserver(observer, dijkstra.HasToken)
		}
		eng.Start()
		holders = func() []int { return eng.Holders(dijkstra.HasToken) }
		stop = eng.Stop
	default:
		fmt.Fprintf(os.Stderr, "unknown algorithm %q\n", *algF)
		os.Exit(2)
	}
	defer stop()

	fmt.Printf("%s on %d nodes — '●' privileged, '·' idle (dark frames = no privilege anywhere)\n\n",
		*algF, cc.N)
	dark := 0
	for f := 0; f < frames; f++ {
		hs := holders()
		lane := make([]rune, cc.N)
		for i := range lane {
			lane[i] = '·'
		}
		for _, h := range hs {
			lane[h] = '●'
		}
		marker := " "
		if len(hs) == 0 {
			marker = "  ← DARK"
			dark++
		}
		fmt.Printf("\r[%s]%s   ", string(lane), marker)
		time.Sleep(time.Second / time.Duration(*fps))
	}
	fmt.Println()
	fmt.Printf("\n%d/%d frames with zero privileged nodes (%.1f%%)\n",
		dark, frames, 100*float64(dark)/float64(frames))
	if observer != nil {
		fmt.Printf("observed: %d rule executions, %d handovers, %d msgs recv, %d dropped\n",
			observer.C.RuleFired.Load(), observer.C.Handovers.Load(),
			observer.C.MsgRecv.Load(), observer.C.MsgDropped.Load())
	}
	if *algF == "ssrmin" && dark > 0 {
		fmt.Println("unexpected dark frames for SSRmin — see Theorem 3")
		os.Exit(1)
	}
}

// checkFlags checks the ring flags (-n, -k, -workers: cc.ResolveK) and
// returns the number of frames -seconds at -fps animate, or an error
// unless fps is positive and the count a positive int.
func checkFlags(cc *cliconf.Config, seconds float64, fps int) (int, error) {
	if err := cc.ResolveK(); err != nil {
		return 0, err
	}
	frames := seconds * float64(fps)
	if fps <= 0 || !(frames >= 1 && frames < math.MaxInt64) {
		return 0, fmt.Errorf("-seconds %v at -fps %d must give between 1 and %d frames", seconds, fps, math.MaxInt64)
	}
	return int(frames), nil
}
