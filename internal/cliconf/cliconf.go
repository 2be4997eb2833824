// Package cliconf centralizes the flag vocabulary shared by the ssrmin
// command-line tools (cmd/ssrmin-sim, cmd/ssrmin-mp, cmd/ssrmin-live,
// cmd/ssrmin-node, cmd/modelcheck, cmd/experiments): ring shape (-n, -k,
// validated by ResolveK), scheduling (-daemon, -p), run length (-steps),
// and randomization (-seed, -random).
// It also owns the daemon registry behind the -daemon flag; the root
// package's ParseDaemon delegates here so the CLI and the library accept
// the same names.
package cliconf

import (
	"flag"
	"fmt"
	"math/rand"
	"strings"

	"ssrmin/internal/core"
	"ssrmin/internal/daemon"
	"ssrmin/internal/statemodel"
)

// DaemonSpec is one entry of the scheduler registry.
type DaemonSpec struct {
	// Name is the -daemon flag value ("central", "sync", ...).
	Name string
	// Label is a descriptive display name for reports ("central-random").
	Label string
	// New builds the daemon. p is only consulted by schedulers with an
	// inclusion probability; the others ignore it.
	New func(seed int64, p float64) statemodel.Daemon
}

// daemons is the single source of truth for scheduler names, shared by
// the CLI flags and ssrmin.ParseDaemon.
var daemons = []DaemonSpec{
	// One random enabled process per step.
	{"central", "central-random",
		func(seed int64, _ float64) statemodel.Daemon {
			return daemon.NewCentralRandom(rand.New(rand.NewSource(seed)))
		}},
	// Every enabled process each step.
	{"sync", "synchronous",
		func(_ int64, _ float64) statemodel.Daemon { return daemon.Synchronous{} }},
	// Each enabled process with probability p.
	{"distributed", "distributed(p)",
		func(seed int64, p float64) statemodel.Daemon {
			return daemon.NewRandomSubset(rand.New(rand.NewSource(seed)), p)
		}},
	// Prefers the non-Dijkstra rules 1, 3, 5.
	{"quiet", "quiet-adversary",
		func(seed int64, _ float64) statemodel.Daemon {
			return daemon.NewRuleBiased(rand.New(rand.NewSource(seed)),
				core.RuleReadySecondary, core.RuleRecvSecondary, core.RuleFixNoG)
		}},
	// Never schedules P0 unless it is the only enabled process.
	{"starve", "starver(P0)",
		func(seed int64, _ float64) statemodel.Daemon {
			return daemon.NewStarver(rand.New(rand.NewSource(seed)), 0)
		}},
}

// Daemons returns a copy of the scheduler registry.
func Daemons() []DaemonSpec {
	out := make([]DaemonSpec, len(daemons))
	copy(out, daemons)
	return out
}

// DaemonNames lists the registered scheduler names in registry order.
func DaemonNames() []string {
	names := make([]string, len(daemons))
	for i, d := range daemons {
		names[i] = d.Name
	}
	return names
}

// ParseDaemon builds the named scheduler, seeding its randomness with
// seed; p is the inclusion probability of "distributed" and must lie in
// [0, 1] (NaN is rejected) whichever scheduler is named.
func ParseDaemon(name string, seed int64, p float64) (statemodel.Daemon, error) {
	for _, d := range daemons {
		if d.Name == name {
			if !(p >= 0 && p <= 1) {
				return nil, fmt.Errorf("inclusion probability p = %v outside [0, 1]", p)
			}
			return d.New(seed, p), nil
		}
	}
	return nil, fmt.Errorf("unknown daemon %q (want one of %s)",
		name, strings.Join(DaemonNames(), " | "))
}

// Config collects the shared flag values. Bind the groups a command
// needs onto its FlagSet, flag.Parse, then read the fields.
type Config struct {
	N     int
	K     int
	Steps int

	Daemon string
	P      float64

	Seed   int64
	Random bool

	Workers int
}

// BindRing registers -n (default defN) and -k.
func (c *Config) BindRing(fs *flag.FlagSet, defN int) {
	fs.IntVar(&c.N, "n", defN, "ring size (≥ 3)")
	fs.IntVar(&c.K, "k", 0, "counter space K (> n; default n+1)")
}

// BindSchedule registers -daemon and -p.
func (c *Config) BindSchedule(fs *flag.FlagSet) {
	fs.StringVar(&c.Daemon, "daemon", "central",
		"scheduler: "+strings.Join(DaemonNames(), " | "))
	fs.Float64Var(&c.P, "p", 0.5, "inclusion probability for -daemon distributed")
}

// BindSteps registers -steps (default defSteps).
func (c *Config) BindSteps(fs *flag.FlagSet, defSteps int) {
	fs.IntVar(&c.Steps, "steps", defSteps, "number of transitions to run")
}

// BindSeed registers just -seed (default defSeed), for tools whose
// initial configuration is not flag-selectable.
func (c *Config) BindSeed(fs *flag.FlagSet, defSeed int64) {
	fs.Int64Var(&c.Seed, "seed", defSeed, "base random seed")
}

// BindRandom registers -seed (default defSeed) and -random.
func (c *Config) BindRandom(fs *flag.FlagSet, defSeed int64) {
	fs.Int64Var(&c.Seed, "seed", defSeed, "random seed")
	fs.BoolVar(&c.Random, "random", false,
		"start from a random configuration instead of the legitimate one")
}

// BindRuntime registers -workers, the live engine's worker-loop count
// shared by ssrmin-live and ssrmin-node.
func (c *Config) BindRuntime(fs *flag.FlagSet) {
	fs.IntVar(&c.Workers, "workers", 0,
		"sharded engine worker loops (0 = GOMAXPROCS, clamped to ring size)")
}

// ResolveK applies the K default (n+1) and validates the ring shape:
// every algorithm the tools run needs n ≥ 3 and K > n. It also rejects a
// negative -workers (BindRuntime; 0 means GOMAXPROCS). The error is
// ready to print as the tool's one-line usage failure.
func (c *Config) ResolveK() error {
	if c.N < 3 {
		return fmt.Errorf("-n %d: ring size must be at least 3", c.N)
	}
	if c.K == 0 {
		c.K = c.N + 1
	}
	if c.K <= c.N {
		return fmt.Errorf("-k %d: counter space must exceed n = %d", c.K, c.N)
	}
	if c.Workers < 0 {
		return fmt.Errorf("-workers %d: worker count must not be negative", c.Workers)
	}
	return nil
}

// NewDaemon builds the scheduler selected by the bound -daemon, -seed and
// -p flags.
func (c *Config) NewDaemon() (statemodel.Daemon, error) {
	return ParseDaemon(c.Daemon, c.Seed, c.P)
}
