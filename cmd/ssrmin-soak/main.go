// Command ssrmin-soak is the differential chaos-soak driver: it sweeps a
// range of seeds, runs each seeded scenario through the selected
// execution tiers (state-reading simulator, discrete-event message
// passing, live sharded engine) via internal/crosscheck, and fails if any
// tier ever breaks a paper invariant — the 1–2 privileged census after
// settling, the O(n²) convergence bound, or the one-message-per-direction
// link rule.
//
// On a violation the offending scenario is auto-shrunk to a minimal
// reproduction and (unless -shrink=false) written to -repro-dir, where
// internal/crosscheck's TestReproFixturesStayFixed replays it as an
// ordinary go test case forever.
//
// Examples:
//
//	ssrmin-soak -seeds 50 -n 5 -dup 0.3 -jitter 0.002
//	ssrmin-soak -seeds 20 -n 7 -loss 0.1 -storm -engines state,msgnet
//	ssrmin-soak -seeds 5 -engines live -horizon 5 -workers 1
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ssrmin/internal/cliconf"
	"ssrmin/internal/crosscheck"
	"ssrmin/internal/obs"
	"ssrmin/internal/parsweep"
	"ssrmin/internal/scenario"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, out, errw *os.File) int {
	fs := flag.NewFlagSet("ssrmin-soak", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		seeds       = fs.Int("seeds", 20, "number of consecutive seeds to sweep")
		baseSeed    = fs.Int64("seed", 1, "first seed of the sweep")
		name        = fs.String("name", "soak", "scenario name prefix")
		n           = fs.Int("n", 5, "ring size")
		k           = fs.Int("k", 0, "K counter space (0: n+1)")
		horizon     = fs.Float64("horizon", 20, "simulated horizon in seconds")
		steps       = fs.Int("steps", 0, "state-engine step budget (0: 2x the paper bound)")
		daemonKind  = fs.String("daemon", "central-random", "state-engine daemon: central-random, synchronous, distributed")
		delay       = fs.Float64("delay", 0.01, "link delay (s)")
		jitter      = fs.Float64("jitter", 0.002, "link jitter (s)")
		loss        = fs.Float64("loss", 0, "per-frame loss probability")
		dup         = fs.Float64("dup", 0, "per-frame duplication probability (msgnet)")
		corrupt     = fs.Float64("corrupt", 0, "per-frame corruption probability (msgnet)")
		refresh     = fs.Float64("refresh", 0, "CST refresh period (0: 5x delay)")
		settle      = fs.Float64("settle", 0, "census settle window after perturbations (0: horizon/2)")
		random      = fs.Bool("random", false, "start from a seeded arbitrary configuration")
		incoherent  = fs.Bool("incoherent", false, "start with incoherent neighbor caches")
		storm       = fs.Bool("storm", false, "inject a canned mid-run fault storm (states + caches)")
		engines     = fs.String("engines", "state,msgnet,live", "comma-separated engine list")
		liveWorkers = fs.Int("live-workers", 0, "sharded live engine worker loops (0: GOMAXPROCS)")
		workers     = fs.Int("workers", 0, "parallel trials (0: GOMAXPROCS)")
		shrink      = fs.Bool("shrink", true, "shrink violating scenarios and write repro fixtures")
		reproDir    = fs.String("repro-dir", "testdata/repros", "directory for repro fixtures")
		verbose     = fs.Bool("v", false, "print one line per seed")

		search         = fs.Bool("search", false, "mutation search over scenarios instead of a seed sweep")
		searchBudget   = fs.Int("search-budget", 40, "search: crosscheck runs per restart")
		searchRestarts = fs.Int("search-restarts", 3, "search: random restarts")
		churn          = fs.Bool("churn", false, "search: admit join/leave/splice events into the mutation space")
	)
	var prof cliconf.Profile
	prof.Bind(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := prof.Start(); err != nil {
		fmt.Fprintln(errw, err)
		return 2
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fmt.Fprintln(errw, err)
		}
	}()

	base := crosscheck.Scenario{
		Name:             *name,
		N:                *n,
		K:                *k,
		Horizon:          *horizon,
		Steps:            *steps,
		Daemon:           *daemonKind,
		Link:             scenario.Link{Delay: *delay, Jitter: *jitter, Loss: *loss, Dup: *dup, Corrupt: *corrupt},
		Refresh:          *refresh,
		RandomStart:      *random,
		IncoherentCaches: *incoherent,
		Settle:           *settle,
		LiveWorkers:      *liveWorkers,
	}
	for _, e := range strings.Split(*engines, ",") {
		if e = strings.TrimSpace(e); e != "" {
			base.Engines = append(base.Engines, e)
		}
	}
	if *storm {
		base.Faults = []scenario.Fault{
			{At: 0.3 * *horizon, Type: "states", Count: (*n + 1) / 2},
			{At: 0.45 * *horizon, Type: "caches", Count: *n},
			{At: 0.6 * *horizon, Type: "states", Count: 1},
		}
	}
	// Validate once up front so a flag mistake is one clean error, not
	// *seeds copies of it.
	probe := base
	probe.Seed = *baseSeed
	if err := probe.Validate(); err != nil {
		fmt.Fprintln(errw, err)
		return 2
	}

	if *search {
		return runSearch(base, searchOptions{
			Restarts: *searchRestarts,
			Budget:   *searchBudget,
			Seed:     *baseSeed,
			Churn:    *churn,
			Shrink:   *shrink,
			ReproDir: *reproDir,
		}, obs.New(nil), out, errw)
	}

	type trial struct {
		rep crosscheck.Report
		err error
	}
	o := obs.New(nil)
	// Each worker owns one crosscheck.Resources (its event arena) for the
	// whole sweep: trials reset-not-reallocate, so a long soak's
	// steady-state allocation stays near zero regardless of seed count.
	pool := parsweep.NewPool(crosscheck.NewResources)
	results := parsweep.MapWith(*seeds, *workers, pool, func(i int, res *crosscheck.Resources) trial {
		sc := base
		sc.Seed = *baseSeed + int64(i)
		sc.Name = fmt.Sprintf("%s-seed%d", *name, sc.Seed)
		rep, err := crosscheck.RunWithRes(sc, o, res)
		return trial{rep: rep, err: err}
	})

	bad := 0
	for _, t := range results {
		if t.err != nil {
			fmt.Fprintln(errw, t.err)
			return 2
		}
		vs := t.rep.Violations()
		if *verbose || len(vs) > 0 {
			status := "ok"
			if len(vs) > 0 {
				status = fmt.Sprintf("%d violation(s)", len(vs))
			}
			fmt.Fprintf(out, "seed %-6d %s\n", t.rep.Scenario.Seed, status)
		}
		if len(vs) == 0 {
			continue
		}
		bad++
		for _, v := range vs {
			fmt.Fprintf(out, "  %s\n", v)
		}
		if d := t.rep.Diff(); d != "" {
			fmt.Fprintf(out, "  differential: %s\n", d)
		}
		if *shrink {
			min, spent := crosscheck.Shrink(t.rep.Scenario, 60)
			fmt.Fprintf(out, "  shrunk in %d runs to n=%d horizon=%v faults=%d engines=%v\n",
				spent, min.N, min.Horizon, len(min.Faults), min.Engines)
			path, err := crosscheck.WriteRepro(*reproDir, crosscheck.Repro{
				Note:     fmt.Sprintf("soak violation: %s", vs[0]),
				Found:    fmt.Sprintf("ssrmin-soak sweep %s seeds %d..%d", *name, *baseSeed, *baseSeed+int64(*seeds)-1),
				Scenario: min,
			})
			if err != nil {
				fmt.Fprintln(errw, err)
			} else {
				fmt.Fprintf(out, "  repro fixture: %s\n", path)
			}
		}
	}

	fmt.Fprintf(out, "soak: %d seeds, %d violating; rules=%d msgs sent=%d recv=%d dropped=%d\n",
		*seeds, bad,
		o.C.RuleFired.Load(), o.C.MsgSent.Load(), o.C.MsgRecv.Load(), o.C.MsgDropped.Load())
	if bad > 0 {
		return 1
	}
	return 0
}
