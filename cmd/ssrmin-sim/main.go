// Command ssrmin-sim runs SSRmin in the state-reading model of the paper
// and prints the execution as a Figure-4 style trace or a summary.
//
// Examples:
//
//	ssrmin-sim -n 5 -steps 15                 # the execution of Figure 4
//	ssrmin-sim -n 7 -k 9 -daemon sync -random -seed 3 -summary
//	ssrmin-sim -n 5 -daemon distributed -p 0.5 -tokens
//	ssrmin-sim -n 5 -events /dev/stderr       # JSONL event log alongside
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"ssrmin"
	"ssrmin/internal/cliconf"
)

func main() {
	var cc cliconf.Config
	cc.BindRing(flag.CommandLine, 5)
	cc.BindSteps(flag.CommandLine, 15)
	cc.BindSchedule(flag.CommandLine)
	cc.BindRandom(flag.CommandLine, 1)
	var (
		tokens  = flag.Bool("tokens", false, "print only token positions (Figure 1 style)")
		summary = flag.Bool("summary", false, "print a summary instead of the trace")
		csv     = flag.Bool("csv", false, "emit the execution as CSV")
		events  = flag.String("events", "", "write a JSONL observability event log to this file")
	)
	flag.Parse()

	if err := cc.ResolveK(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	d, err := cc.NewDaemon()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	opts := []ssrmin.Option{ssrmin.WithK(cc.K), ssrmin.WithDaemon(d), ssrmin.WithRecording()}
	if cc.Random {
		alg := ssrmin.New(cc.N, cc.K)
		opts = append(opts, ssrmin.WithInitial(ssrmin.RandomConfig(alg, rand.New(rand.NewSource(cc.Seed)))))
	}
	var jsonl *ssrmin.JSONLSink
	if *events != "" {
		f, err := os.Create(*events)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		jsonl = ssrmin.NewJSONLSink(f)
		opts = append(opts, ssrmin.WithSink(jsonl))
	}
	sim := ssrmin.NewSimulation(cc.N, opts...)

	legitAt := -1
	if sim.Legitimate() {
		legitAt = 0
	}
	for i := 0; i < cc.Steps; i++ {
		if _, ok := sim.Step(); !ok {
			fmt.Fprintln(os.Stderr, "deadlock (should be impossible for SSRmin)")
			break
		}
		if legitAt < 0 && sim.Legitimate() {
			legitAt = sim.Steps()
		}
	}

	switch {
	case *summary:
		tc := sim.Census()
		fmt.Printf("algorithm:   %s\n", sim.Algorithm().Name())
		fmt.Printf("daemon:      %s\n", d.Name())
		fmt.Printf("steps:       %d\n", sim.Steps())
		fmt.Printf("legitimate:  %v (first at step %d)\n", sim.Legitimate(), legitAt)
		fmt.Printf("census:      primary=%d secondary=%d privileged=%d\n", tc.Primary, tc.Secondary, tc.Privileged)
		fmt.Printf("holders:     %v\n", sim.Holders())
	case *csv:
		if err := sim.WriteCSV(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case *tokens:
		if err := sim.RenderTokens(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	default:
		if err := sim.RenderTrace(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if jsonl != nil {
		if err := jsonl.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "event log: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %d events to %s\n", jsonl.Events(), *events)
	}
}
