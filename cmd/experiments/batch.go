// The bit-sliced batch executor for the fig12/fig13-style Monte-Carlo
// convergence sweeps: 64 seeded runs per machine word through
// internal/bitslice, with the scalar statemodel path kept as the
// differential oracle. Every table is built twice — once from scalar
// step counts, once from batch step counts — and the experiment (and
// the CI differential test in main_test.go) demands the renderings be
// byte-identical.
package main

import (
	"fmt"
	"strings"
	"time"

	"ssrmin/internal/bitslice"
	"ssrmin/internal/core"
	"ssrmin/internal/dijkstra"
	"ssrmin/internal/parsweep"
	"ssrmin/internal/report"
	"ssrmin/internal/stats"
)

func init() {
	register(97, "batchconv",
		"Bit-sliced batch executor: 64-lane SSRmin/SSToken convergence sweeps vs the scalar oracle",
		runBatchConv)
}

// batchAlgo names one sweep target and its per-size step budget.
type batchAlgo struct {
	name     string
	maxSteps func(n, k int) int
	scalar   func(n, k int, kind bitslice.DaemonKind, seed int64, lane, maxSteps int) (int, bool)
	batch    func(n, k int, kind bitslice.DaemonKind, seed int64, maxSteps int) ([bitslice.Lanes]int, uint64)
}

var batchAlgos = []batchAlgo{
	{
		name:     "SSRmin (fig12 workload)",
		maxSteps: func(n, k int) int { return core.New(n, k).ConvergenceStepBound() },
		scalar:   bitslice.ScalarSSRminRun,
		batch: func(n, k int, kind bitslice.DaemonKind, seed int64, maxSteps int) ([bitslice.Lanes]int, uint64) {
			b := bitslice.NewSSRmin(n, k, kind)
			b.SeedLanes(seed)
			return b.Run(maxSteps)
		},
	},
	{
		name:     "SSToken (fig13 workload)",
		maxSteps: func(n, k int) int { return 3 * dijkstra.New(n, k).ConvergenceBound() },
		scalar:   bitslice.ScalarSSTokenRun,
		batch: func(n, k int, kind bitslice.DaemonKind, seed int64, maxSteps int) ([bitslice.Lanes]int, uint64) {
			b := bitslice.NewSSToken(n, k, kind)
			b.SeedLanes(seed)
			return b.Run(maxSteps)
		},
	},
}

// batchSweep runs `batches` 64-lane batches per ring size through one
// executor and returns per-size step samples, in (size, batch, lane)
// order so the scalar and batch executors produce comparable arrays.
// Both executors fan out across cores on parsweep.Map: the batch path
// parallelizes over whole batches (64 lanes × W workers), the scalar
// path over individual seeded runs.
func batchSweep(a batchAlgo, ns []int, batches int, seed int64, scalar bool) ([][]float64, time.Duration) {
	out := make([][]float64, len(ns))
	start := time.Now()
	for si, n := range ns {
		k := n + 1
		bound := a.maxSteps(n, k)
		samples := make([]float64, 0, batches*bitslice.Lanes)
		if scalar {
			runs := parsweep.Map(batches*bitslice.Lanes, 0, func(i int) float64 {
				s, _ := a.scalar(n, k, bitslice.Subset, seed+int64(i/bitslice.Lanes), i%bitslice.Lanes, bound)
				return float64(s)
			})
			samples = append(samples, runs...)
		} else {
			perBatch := parsweep.Map(batches, 0, func(b int) [bitslice.Lanes]int {
				steps, _ := a.batch(n, k, bitslice.Subset, seed+int64(b), bound)
				return steps
			})
			for _, steps := range perBatch {
				for _, s := range steps {
					samples = append(samples, float64(s))
				}
			}
		}
		out[si] = samples
	}
	return out, time.Since(start)
}

// batchTable renders one executor's sweep as the committed table shape.
func batchTable(ns []int, batches int, samples [][]float64) *report.Table {
	t := newTable("n", "K", "runs", "mean steps", "median", "p90", "max", "growth c in c*n^2")
	for si, n := range ns {
		s := stats.Summarize(samples[si])
		t.AddRow(n, n+1, batches*bitslice.Lanes, s.Mean, s.Median, s.P90, s.Max, s.Mean/float64(n*n))
	}
	return t
}

// renderTables produces the byte-comparable (scalar, batch) renderings
// for one algorithm — the differential surface of the CI test.
func renderBatchTables(a batchAlgo, ns []int, batches int, seed int64) (scalarTab, batchTab string, scalarDur, batchDur time.Duration) {
	scalarSamples, sDur := batchSweep(a, ns, batches, seed, true)
	batchSamples, bDur := batchSweep(a, ns, batches, seed, false)
	var sb, bb strings.Builder
	if err := batchTable(ns, batches, scalarSamples).Render(&sb, tableFormat); err != nil {
		panic(err)
	}
	if err := batchTable(ns, batches, batchSamples).Render(&bb, tableFormat); err != nil {
		panic(err)
	}
	return sb.String(), bb.String(), sDur, bDur
}

// batchConvSizes returns the ring sizes and 64-lane batches per size of
// the batchconv experiment.
func batchConvSizes(cfg runConfig) (ns []int, batches int) {
	if cfg.quick {
		return []int{8, 16}, 2
	}
	return []int{8, 16, 32, 64}, 4
}

// runBatchConv reproduces the fig12/fig13 convergence sweeps on both
// executors and proves the committed tables byte-identical, then reports
// the measured throughput ratio.
func runBatchConv(cfg runConfig) {
	ns, batches := batchConvSizes(cfg)
	runs := batches * bitslice.Lanes
	summary := newTable("workload", "runs/size", "scalar s", "bit-sliced s", "speedup", "identical tables")
	for _, a := range batchAlgos {
		scalarTab, batchTab, sDur, bDur := renderBatchTables(a, ns, batches, cfg.seed)
		if scalarTab != batchTab {
			fmt.Printf("MISMATCH: %s scalar and bit-sliced executors disagree\n--- scalar ---\n%s--- batch ---\n%s",
				a.name, scalarTab, batchTab)
			continue
		}
		fmt.Printf("%s — %d runs per ring size, subset daemon, both executors byte-identical:\n", a.name, runs)
		fmt.Print(batchTab)
		fmt.Println()
		speedup := sDur.Seconds() / bDur.Seconds()
		summary.AddRow(a.name, runs, fmt.Sprintf("%.3f", sDur.Seconds()),
			fmt.Sprintf("%.3f", bDur.Seconds()), fmt.Sprintf("%.1fx", speedup), "yes")
	}
	fmt.Println("executor comparison (wall clock, includes the scalar oracle's per-step allocations):")
	printTable(summary)
}
