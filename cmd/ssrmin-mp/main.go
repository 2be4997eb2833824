// Command ssrmin-mp runs the CST-transformed SSRmin (or the Dijkstra
// SSToken baseline) over the discrete-event message-passing network and
// reports the token-census timeline — the message-passing experiments of
// Section 5 of the paper.
//
// Examples:
//
//	ssrmin-mp -n 5 -horizon 10                     # SSRmin, legit start
//	ssrmin-mp -n 5 -alg sstoken -horizon 10        # Figure 11 baseline
//	ssrmin-mp -n 5 -random -loss 0.1 -horizon 60   # Theorem 4 setting
//	ssrmin-mp -n 5 -events handover.jsonl          # JSONL event log
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"ssrmin"
	"ssrmin/internal/cliconf"
	"ssrmin/internal/cst"
	"ssrmin/internal/dijkstra"
	"ssrmin/internal/msgnet"
	"ssrmin/internal/scenario"
	"ssrmin/internal/trace"
	"ssrmin/internal/verify"
)

func main() {
	var cc cliconf.Config
	cc.BindRing(flag.CommandLine, 5)
	cc.BindRandom(flag.CommandLine, 1)
	var prof cliconf.Profile
	prof.Bind(flag.CommandLine)
	var (
		scenarioF = flag.String("scenario", "", "run a JSON scenario file instead of flags (see scenarios/)")

		algF    = flag.String("alg", "ssrmin", "algorithm: ssrmin | sstoken")
		horizon = flag.Float64("horizon", 10, "simulated seconds to run")
		delay   = flag.Float64("delay", 0.01, "link delay (s)")
		jitter  = flag.Float64("jitter", 0.002, "link jitter bound (s)")
		loss    = flag.Float64("loss", 0, "per-message loss probability")
		refresh = flag.Float64("refresh", 0.05, "cache refresh period (s)")
		hold    = flag.Float64("hold", 0, "critical-section dwell (s)")
		events  = flag.String("events", "", "write a JSONL observability event log to this file")
	)
	flag.Parse()
	if err := prof.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// runSSRmin exits directly on errors; flush the profiles first so a
	// failed run still leaves readable output.
	defer stopProfile(&prof)
	if *scenarioF != "" {
		if code := runScenarioFile(*scenarioF, os.Stdout, os.Stderr); code != 0 {
			stopProfile(&prof)
			os.Exit(code)
		}
		return
	}
	if err := cc.ResolveK(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	switch *algF {
	case "ssrmin":
		runSSRmin(cc, *horizon, *delay, *jitter, *loss, *refresh, *hold, *events)
	case "sstoken":
		runSSToken(cc.N, cc.K, *horizon, *delay, *jitter, *loss, *refresh, *hold, cc.Seed)
	default:
		fmt.Fprintf(os.Stderr, "unknown algorithm %q\n", *algF)
		os.Exit(2)
	}
}

func stopProfile(p *cliconf.Profile) {
	if err := p.Stop(); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
}

// secs converts a float flag in seconds to the option unit.
func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func runSSRmin(cc cliconf.Config, horizon, delay, jitter, loss, refresh, hold float64, events string) {
	opts := []ssrmin.Option{
		ssrmin.WithK(cc.K), ssrmin.WithSeed(cc.Seed),
		ssrmin.WithDelay(secs(delay)), ssrmin.WithJitter(secs(jitter)),
		ssrmin.WithLoss(loss), ssrmin.WithRefresh(secs(refresh)),
		ssrmin.WithHold(secs(hold)),
	}
	if cc.Random {
		alg := ssrmin.New(cc.N, cc.K)
		opts = append(opts,
			ssrmin.WithInitial(ssrmin.RandomConfig(alg, rand.New(rand.NewSource(cc.Seed)))),
			ssrmin.WithIncoherentCaches())
	}
	var jsonl *ssrmin.JSONLSink
	if events != "" {
		f, err := os.Create(events)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		jsonl = ssrmin.NewJSONLSink(f)
		opts = append(opts, ssrmin.WithSink(jsonl))
	}
	m := ssrmin.NewMPSimulation(cc.N, opts...)
	m.Run(horizon)
	stats := m.Ring().Net.Stats()
	tl := m.Timeline()
	fmt.Printf("algorithm:     ssrmin(n=%d,K=%d)\n", cc.N, cc.K)
	printTimeline(tl, stats, m.RuleExecutions())
	fmt.Printf("final census:  %d privileged %v\n", m.Census(), m.Holders())
	if jsonl != nil {
		if err := jsonl.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "event log: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %d events to %s\n", jsonl.Events(), events)
	}
}

func runSSToken(n, k int, horizon, delay, jitter, loss, refresh, hold float64, seed int64) {
	alg := dijkstra.New(n, k)
	r := cst.NewRing[dijkstra.State](alg, alg.InitialLegitimate(), cst.Options[dijkstra.State]{
		Link:           msgnet.LinkParams{Delay: msgnet.Time(delay), Jitter: msgnet.Time(jitter), LossProb: loss},
		Refresh:        msgnet.Time(refresh),
		Hold:           msgnet.Time(hold),
		Seed:           seed,
		CoherentCaches: true,
	})
	var tl verify.Timeline
	r.Net.Observer = func(now msgnet.Time) {
		tl.Record(float64(now), r.Census(dijkstra.HasToken))
	}
	r.Net.Run(msgnet.Time(horizon))
	tl.Close(float64(r.Net.Now()))
	fmt.Printf("algorithm:     %s under CST\n", alg.Name())
	printTimeline(&tl, r.Net.Stats(), r.RuleExecutions())
}

func printTimeline(tl *verify.Timeline, stats msgnet.Stats, execs int) {
	fmt.Printf("census span:   min=%d max=%d\n", tl.MinCount(), tl.MaxCount())
	for _, c := range tl.Counts() {
		fmt.Printf("  %d holder(s): %6.2f%% of time (%.3fs)\n", c, 100*tl.Fraction(c), tl.Duration(c))
	}
	fmt.Printf("rules:         %d executions\n", execs)
	fmt.Printf("messages:      sent=%d delivered=%d suppressed=%d lost=%d dup=%d\n",
		stats.Sent, stats.Delivered, stats.Suppressed, stats.Lost, stats.Duplicated)
	fmt.Println("census strip ('.' marks instants with zero holders):")
	if err := trace.RenderTimeline(os.Stdout, tl, 100); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
}

// runScenarioFile loads and validates every scenario in a JSON document,
// then runs them in order and prints each result as JSON. An unreadable,
// malformed or invalid document prints one stderr line and returns 2
// before any scenario runs; a run or write failure returns 1.
func runScenarioFile(path string, stdout, stderr io.Writer) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	defer f.Close()
	ss, err := scenario.Load(f)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", path, err)
		return 2
	}
	if len(ss) == 0 {
		fmt.Fprintf(stderr, "%s: no scenarios\n", path)
		return 2
	}
	for i := range ss {
		if err := ss[i].Validate(); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", path, err)
			return 2
		}
	}
	for _, s := range ss {
		res, err := s.Run()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := scenario.WriteResult(stdout, res); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	return 0
}
