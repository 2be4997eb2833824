// Command ssrmin-node runs ONE SSRmin process as a standalone network
// service — the distributed deployment of the paper's algorithm. Start n
// of these (on one machine or several), each pointing at its ring
// neighbors, and the ring self-organizes: no leader election, no
// initialization protocol, arbitrary start order, automatic recovery from
// restarts and transient faults.
//
// Example — a 3-node ring on one machine:
//
//	ssrmin-node -id 0 -n 3 -listen 127.0.0.1:9000 -pred 127.0.0.1:9002 -succ 127.0.0.1:9001 &
//	ssrmin-node -id 1 -n 3 -listen 127.0.0.1:9001 -pred 127.0.0.1:9000 -succ 127.0.0.1:9002 &
//	ssrmin-node -id 2 -n 3 -listen 127.0.0.1:9002 -pred 127.0.0.1:9001 -succ 127.0.0.1:9000 &
//
// Each node logs its privilege transitions; kill and restart any node and
// watch the ring heal. With -metrics each node additionally serves its
// counters on /metrics and /debug/vars.
//
// With -local the command instead deploys the WHOLE ring in one process
// on the live runtime's sharded event engine (see -workers) — useful for
// smoke-testing a deployment size before spreading it across machines:
//
//	ssrmin-node -local -n 100000 -seconds 5
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ssrmin"
	"ssrmin/internal/cliconf"
	"ssrmin/internal/core"
	"ssrmin/internal/netring"
	"ssrmin/internal/obs"
)

func main() {
	var cc cliconf.Config
	cc.BindRing(flag.CommandLine, 0)
	cc.BindRuntime(flag.CommandLine)
	var (
		id      = flag.Int("id", -1, "this node's ring index (0..n-1)")
		listen  = flag.String("listen", "", "listen address, e.g. 127.0.0.1:9000")
		pred    = flag.String("pred", "", "predecessor's listen address")
		succ    = flag.String("succ", "", "successor's listen address")
		refresh = flag.Duration("refresh", 50*time.Millisecond, "announcement refresh interval")
		seconds = flag.Float64("seconds", 0, "exit after this many seconds (0 = run until signal)")
		metrics = flag.String("metrics", "", "serve /metrics and /debug/vars on this address")
		local   = flag.Bool("local", false, "run the whole n-node ring in this process on the live runtime")
	)
	flag.Parse()

	if *local {
		os.Exit(runLocal(&cc, *seconds, *metrics))
	}

	if *id < 0 || *listen == "" || *pred == "" || *succ == "" {
		fmt.Fprintln(os.Stderr, "required: -id -n -listen -pred -succ (see -h)")
		os.Exit(2)
	}
	if err := cc.ResolveK(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Arbitrary initial state: self-stabilization means we need no
	// coordination about starting values.
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	init := core.New(cc.N, cc.K).RandomState(rng)

	node, err := netring.NewNode(netring.Config{
		ID: *id, N: cc.N, K: cc.K,
		Listener: l,
		PredAddr: *pred,
		SuccAddr: *succ,
		Refresh:  *refresh,
	}, init)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	var observer *obs.Observer
	start := time.Now()
	if *metrics != "" {
		observer = obs.New(nil)
		bound, shutdown, err := obs.Serve(*metrics, observer)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer shutdown()
		fmt.Printf("node %d: metrics on http://%s/metrics\n", *id, bound)
	}

	node.Start()
	defer node.Stop()
	fmt.Printf("node %d/%d listening on %s (initial state %v)\n", *id, cc.N, node.Addr(), init)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	var deadline <-chan time.Time
	if *seconds > 0 {
		deadline = time.After(time.Duration(*seconds * float64(time.Second)))
	}

	logTransitions(node, *id, observer, start, stop, deadline)
}

// runLocal deploys the whole ring in-process on the live engine through
// the unified Option API and reports the census band it sustained.
func runLocal(cc *cliconf.Config, seconds float64, metrics string) int {
	if err := cc.ResolveK(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if seconds <= 0 {
		seconds = 5
	}
	opts := []ssrmin.Option{
		ssrmin.WithK(cc.K),
		ssrmin.WithSeed(cc.Seed),
		ssrmin.WithWorkers(cc.Workers),
	}
	var observer *obs.Observer
	if metrics != "" {
		observer = obs.New(nil)
		bound, shutdown, err := obs.Serve(metrics, observer)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer shutdown()
		fmt.Printf("metrics on http://%s/metrics\n", bound)
		opts = append(opts, ssrmin.WithObserver(observer))
	}
	ring := ssrmin.NewLiveRing(cc.N, opts...)
	fmt.Printf("local ring: n=%d on the sharded engine for %.1fs\n", cc.N, seconds)
	ring.Start()
	defer ring.Stop()
	stats := ring.WatchCensus(time.Duration(seconds*float64(time.Second)), 5*time.Millisecond)
	fmt.Printf("census over %d samples: min=%d max=%d, %d distinct holders, %d rule executions\n",
		stats.Samples, stats.Min, stats.Max, stats.DistinctHolders, ring.RuleExecutions())
	if stats.Min < 1 || stats.Max > 2 {
		fmt.Println("census left the [1,2] band — see Theorem 3")
		return 1
	}
	return 0
}

// logTransitions watches one TCP node's privilege edges until a signal
// or the deadline fires.
func logTransitions(node *netring.Node, id int, observer *obs.Observer, start time.Time, stop chan os.Signal, deadline <-chan time.Time) {
	// Log privilege transitions (and, with -metrics, feed the observer:
	// handover events from privilege edges, rule counters by delta).
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	wasPrivileged := false
	lastExecs := 0
	for {
		select {
		case <-stop:
			fmt.Printf("node %d: shutting down (%d rule executions)\n", id, node.RuleExecutions())
			return
		case <-deadline:
			fmt.Printf("node %d: done (%d rule executions)\n", id, node.RuleExecutions())
			return
		case <-tick.C:
			if observer != nil {
				execs := node.RuleExecutions()
				if d := execs - lastExecs; d > 0 {
					observer.C.RuleFired.Add(int64(d))
					lastExecs = execs
				}
			}
			p := node.Privileged()
			if p != wasPrivileged {
				wasPrivileged = p
				if observer != nil {
					observer.Handover(time.Since(start).Seconds(), id, p)
				}
				state, _, _ := node.Snapshot()
				if p {
					fmt.Printf("node %d: PRIVILEGED  (state %v)\n", id, state)
				} else {
					fmt.Printf("node %d: idle        (state %v)\n", id, state)
				}
			}
		}
	}
}
