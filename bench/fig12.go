package main

import (
	"fmt"
	"math/bits"
	"time"

	"ssrmin/internal/bitslice"
	"ssrmin/internal/core"
	"ssrmin/internal/dijkstra"
	"ssrmin/internal/parsweep"
)

// fig12-sweep: the paper's statistical figure. Bit-sliced SSRmin and
// SSToken convergence under the subset daemon, 64 seeded runs per batch,
// batches spread over parsweep.Map. Nearly all the time is in
// internal/bitslice and internal/parsweep; msgnet, the engine and the
// checker are never touched.

type fig12Config struct {
	ns          []int
	batches     int // 64-lane batches per (algorithm, n) cell
	warmBatches int // batches per cell in the set-up warm-up pass
	probeCalls  int // calls per traced micro-probe
	// oracle replays one lane through the scalar statemodel path; nil
	// selects the algorithm's own scalar runner. Tests substitute a
	// doctored one to show that a mismatched lane fails the run.
	oracle func(a batchAlg, n, k int, seed int64, lane, maxSteps int) (int, bool)
}

var fig12Full = fig12Config{ns: []int{16, 32, 64}, batches: 1024, warmBatches: 512, probeCalls: 20000}

// laneBatch is the part of a bit-sliced batch the benchmark drives.
type laneBatch interface {
	SeedLanes(seed int64)
	Run(maxSteps int) ([bitslice.Lanes]int, uint64)
	Step() uint64
	LegitMask() uint64
}

// batchAlg is one swept algorithm: its step budget, its batch kernel and
// its scalar oracle, as cmd/experiments' batchconv sweeps them.
type batchAlg struct {
	name     string
	maxSteps func(n, k int) int
	newBatch func(n, k int, d bitslice.DaemonKind) laneBatch
	scalar   func(n, k int, d bitslice.DaemonKind, seed int64, lane, maxSteps int) (int, bool)
}

var batchAlgs = []batchAlg{
	{
		name:     "ssrmin",
		maxSteps: func(n, k int) int { return core.New(n, k).ConvergenceStepBound() },
		newBatch: func(n, k int, d bitslice.DaemonKind) laneBatch { return bitslice.NewSSRmin(n, k, d) },
		scalar:   bitslice.ScalarSSRminRun,
	},
	{
		name:     "sstoken",
		maxSteps: func(n, k int) int { return 3 * dijkstra.New(n, k).ConvergenceBound() },
		newBatch: func(n, k int, d bitslice.DaemonKind) laneBatch { return bitslice.NewSSToken(n, k, d) },
		scalar:   bitslice.ScalarSSTokenRun,
	},
}

type fig12Cell struct {
	alg        batchAlg
	n, k       int
	bound      int
	label      string
	seeds      []int64 // one per batch, derived from the run seed
	outs       []batchOut
	laneSteps  int64 // Σ lane steps of the last repetition
	batchSteps int64 // Σ per-batch steps (the slowest lane) of the last repetition
}

type batchOut struct {
	steps     [bitslice.Lanes]int
	converged uint64
}

type fig12 struct {
	cfg     fig12Config
	seed    int64
	workers int
	cells   []fig12Cell
	reps    int
	sweeps  [][]*sweepClock // per traced repetition, one clock per cell
}

func newFig12(cfg fig12Config, seed int64) *fig12 {
	f := &fig12{cfg: cfg, seed: seed, workers: numWorkers()}
	for _, a := range batchAlgs {
		for _, n := range cfg.ns {
			k := n + 1
			f.cells = append(f.cells, fig12Cell{
				alg: a, n: n, k: k, bound: a.maxSteps(n, k),
				label: fmt.Sprintf("%s n=%d", a.name, n),
			})
		}
	}
	return f
}

func (f *fig12) name() string { return wFig12 }

func (f *fig12) params() map[string]any {
	return map[string]any{
		"ns": f.cfg.ns, "k": "n+1", "algorithms": "ssrmin,sstoken", "daemon": "subset",
		"batches_per_cell": f.cfg.batches, "lanes_per_batch": bitslice.Lanes,
		"warm_batches_per_cell": f.cfg.warmBatches, "workers": f.workers,
	}
}

func (f *fig12) setup() error {
	for ci := range f.cells {
		c := &f.cells[ci]
		c.seeds = f.cellSeeds(ci)
		warm := c.seeds[:min(f.cfg.warmBatches, len(c.seeds))]
		outs := parsweep.Map(len(warm), f.workers, func(b int) batchOut {
			return runBatch(c, warm[b], nil, -1)
		})
		for b, o := range outs {
			if o.converged != ^uint64(0) {
				return fmt.Errorf("%s warm-up batch %d: lanes %#x did not converge", c.label, b, ^o.converged)
			}
		}
	}
	return nil
}

func (f *fig12) teardown() {}

func (f *fig12) work() (float64, string) {
	return float64(len(f.cells) * f.cfg.batches * bitslice.Lanes), "seeds"
}

// cellSeeds derives one batch seed per batch of cell ci from the run seed.
func (f *fig12) cellSeeds(ci int) []int64 {
	seeds := make([]int64, f.cfg.batches)
	for b := range seeds {
		seeds[b] = derive(f.seed, int64(ci), int64(b))
	}
	return seeds
}

func (f *fig12) inputDigest() string {
	seeds := make([][]int64, len(f.cells))
	for ci := range f.cells {
		seeds[ci] = f.cellSeeds(ci)
	}
	return digest(seeds)
}

func (f *fig12) rep(tr *tracer, root int32) {
	f.reps++
	var clocks []*sweepClock
	for ci := range f.cells {
		c := &f.cells[ci]
		cs := tr.begin("cell "+c.label, root)
		var clock *sweepClock
		if tr != nil {
			clock = newSweepClock(f.workers)
		}
		c.outs = parsweep.Map(len(c.seeds), f.workers, func(b int) batchOut {
			var start time.Time
			if clock != nil {
				start = time.Now()
			}
			item := tr.beginItem("parsweep.item", cs)
			out := runBatch(c, c.seeds[b], tr, item)
			tr.end(item)
			if clock != nil {
				clock.item(b, start)
			}
			return out
		})
		if clock != nil {
			clock.done()
			clocks = append(clocks, clock)
		}
		tr.end(cs)
	}
	if tr != nil {
		f.sweeps = append(f.sweeps, clocks)
	}
}

// runBatch seeds one 64-lane batch and runs it to convergence.
func runBatch(c *fig12Cell, seed int64, tr *tracer, item int32) batchOut {
	b := c.alg.newBatch(c.n, c.k, bitslice.Subset)
	s := tr.begin("bitslice.SeedLanes", item)
	b.SeedLanes(seed)
	tr.end(s)
	r := tr.begin("bitslice.Run", item)
	steps, conv := b.Run(c.bound)
	tr.end(r)
	return batchOut{steps: steps, converged: conv}
}

// check demands that every lane converged within the paper's bound and
// replays one lane per cell, chosen from the seed and the repetition,
// through the scalar oracle, which must agree step for step.
func (f *fig12) check() tally {
	var t tally
	for ci := range f.cells {
		c := &f.cells[ci]
		c.laneSteps, c.batchSteps = 0, 0
		for _, o := range c.outs {
			t.attempted += bitslice.Lanes
			if miss := bits.OnesCount64(^o.converged); miss > 0 {
				t.failed += miss
				t.notes = append(t.notes, fmt.Sprintf("%s: %d lanes did not converge within %d steps", c.label, miss, c.bound))
			}
			slowest := 0
			for _, s := range o.steps {
				c.laneSteps += int64(s)
				slowest = max(slowest, s)
			}
			c.batchSteps += int64(slowest)
		}
		b := int(derive(f.seed, -1, int64(f.reps), int64(ci)) % int64(len(c.outs)))
		lane := int(derive(f.seed, -2, int64(f.reps), int64(ci)) % bitslice.Lanes)
		oracle := f.cfg.oracle
		if oracle == nil {
			oracle = func(a batchAlg, n, k int, seed int64, lane, maxSteps int) (int, bool) {
				return a.scalar(n, k, bitslice.Subset, seed, lane, maxSteps)
			}
		}
		steps, ok := oracle(c.alg, c.n, c.k, c.seeds[b], lane, c.bound)
		got := c.outs[b].steps[lane]
		gotOK := c.outs[b].converged>>uint(lane)&1 == 1
		t.expect(steps == got && ok == gotOK, "%s batch %d lane %d: bit-sliced %d steps (converged %v), scalar oracle %d (converged %v)",
			c.label, b, lane, got, gotOK, steps, ok)
	}
	return t
}

func (f *fig12) minTracedReps() int { return 1 }

func (f *fig12) counts() map[string]float64 {
	out := map[string]float64{}
	var lane, batch int64
	for _, c := range f.cells {
		lane += c.laneSteps
		batch += c.batchSteps
	}
	out["lane_steps"] = float64(lane)
	out["batch_steps"] = float64(batch)
	return out
}

func (f *fig12) layers(tr *tracer, m metricSet) tally {
	spans := tr.snapshot()
	lt := layerTotals(spans)
	seed, run, item := lt["bitslice.SeedLanes"], lt["bitslice.Run"], lt["parsweep.item"]
	if seed == nil || run == nil || item == nil {
		return tally{attempted: 1, failed: 1, notes: []string{"fig12: traced repetitions recorded no bitslice spans"}}
	}
	traced := len(f.sweeps)
	var laneSteps, batchSteps float64
	for _, c := range f.cells {
		laneSteps += float64(c.laneSteps)
		batchSteps += float64(c.batchSteps)
	}
	lanes := float64(seed.calls * bitslice.Lanes)
	m["bitslice.seed_share"] = float64(seed.totalNS) / float64(item.totalNS)
	m["bitslice.seed_ns_per_lane"] = float64(seed.totalNS) / lanes
	m["bitslice.run_ns_per_step"] = float64(run.totalNS) / (float64(traced) * batchSteps)
	m["bitslice.lane_util"] = laneSteps / (bitslice.Lanes * batchSteps)

	// Micro-probes at n=64, the largest cell: per-call Step costs under
	// both daemons (their difference is the RNG draw plus transpose),
	// 64 raw RNG draws, and the lane-parallel legitimacy test.
	const n = 64
	m["bitslice.step_ns.subset"] = stepNS(batchAlgs[0], n, bitslice.Subset, f.seed, f.cfg.probeCalls)
	m["bitslice.step_ns.sync"] = stepNS(batchAlgs[0], n, bitslice.Synchronous, f.seed, f.cfg.probeCalls)
	m["bitslice.draw_ns"] = m["bitslice.step_ns.subset"] - m["bitslice.step_ns.sync"]
	m["bitslice.rng_ns"] = rngNS(f.seed, f.cfg.probeCalls)
	m["bitslice.legit_ns"] = legitNS(batchAlgs[0], n, f.seed, f.cfg.probeCalls)

	// Reconciliation: per cell, measured seeding time plus batch steps
	// times that cell's probed Step+LegitMask cost, spread over the
	// workers, against the untraced repetition time.
	seedByCell := map[string]int64{}
	for _, s := range spans {
		if s.name != "bitslice.SeedLanes" {
			continue
		}
		cell := spans[spans[s.parent].parent].name
		seedByCell[cell] += s.dur()
	}
	var predicted float64
	for _, c := range f.cells {
		perStep := stepNS(c.alg, c.n, bitslice.Subset, f.seed, f.cfg.probeCalls/4) +
			legitNS(c.alg, c.n, f.seed, f.cfg.probeCalls/4)
		predicted += float64(c.batchSteps)*perStep + float64(seedByCell["cell "+c.label])/float64(traced)
	}
	m["bitslice.unexplained_share"] = 1 - predicted/1e9/(float64(f.workers)*m["rep_s"])

	var itemSum, capacity float64
	var tails []float64
	for _, clocks := range f.sweeps {
		tail := 0.0
		for _, c := range clocks {
			s, cp := c.busy()
			itemSum += s
			capacity += cp
			tail += c.tail()
		}
		tails = append(tails, tail)
	}
	m["parsweep.busy_ratio.fig12"] = itemSum / capacity
	m["parsweep.tail_s"] = median(tails)
	return tally{}
}

// probeSink keeps the probes' results live so the compiler cannot drop
// the measured calls.
var probeSink uint64

// stepNS times Step on a seeded batch: nanoseconds per call.
func stepNS(a batchAlg, n int, d bitslice.DaemonKind, seed int64, calls int) float64 {
	b := a.newBatch(n, n+1, d)
	b.SeedLanes(seed)
	start := time.Now()
	var acc uint64
	for i := 0; i < calls; i++ {
		acc ^= b.Step()
	}
	probeSink ^= acc
	return float64(time.Since(start).Nanoseconds()) / float64(calls)
}

// legitNS times LegitMask on a seeded batch: nanoseconds per call.
func legitNS(a batchAlg, n int, seed int64, calls int) float64 {
	b := a.newBatch(n, n+1, bitslice.Subset)
	b.SeedLanes(seed)
	start := time.Now()
	var acc uint64
	for i := 0; i < calls; i++ {
		acc ^= b.LegitMask()
	}
	probeSink ^= acc
	return float64(time.Since(start).Nanoseconds()) / float64(calls)
}

// rngNS times one draw on each of the 64 lane streams: nanoseconds per
// 64 draws, what a subset-daemon step spends before its transpose.
func rngNS(seed int64, calls int) float64 {
	var lanes [bitslice.Lanes]bitslice.RNG
	for l := range lanes {
		lanes[l] = bitslice.SeedStream(seed, l)
	}
	start := time.Now()
	var acc uint64
	for i := 0; i < calls; i++ {
		for l := range lanes {
			acc ^= lanes[l].Next()
		}
	}
	probeSink ^= acc
	return float64(time.Since(start).Nanoseconds()) / float64(calls)
}
