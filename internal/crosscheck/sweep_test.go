package crosscheck

import (
	"fmt"
	"io"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"ssrmin/internal/obs"
	"ssrmin/internal/parsweep"
	"ssrmin/internal/scenario"
)

// sweepScenarios returns n storm and churn scenarios through all three
// tiers, the soak-mix shape at a test-sized horizon.
func sweepScenarios(n int) []Scenario {
	out := make([]Scenario, n)
	for i := range out {
		sc := Scenario{
			Name: fmt.Sprintf("sweep-%d", i), N: 6, K: 12, Seed: int64(100 + i),
			Horizon: 6, Settle: 3, RandomStart: true, IncoherentCaches: true, LiveWorkers: 1,
			Link: scenario.Link{Delay: 0.01, Jitter: 0.002, Loss: 0.05, Dup: 0.1, Corrupt: 0.02},
		}
		if i%2 == 0 {
			sc.Faults = []scenario.Fault{{At: 2, Type: "states", Count: 3}, {At: 3, Type: "caches", Count: 6}}
		} else {
			sc.Faults = []scenario.Fault{
				{At: 1, Type: "join", Node: i % 6},
				{At: 2, Type: "leave", Node: 1 + i%5},
				{At: 2.5, Type: "splice", Node: 0, Count: 1},
			}
		}
		out[i] = sc
	}
	return out
}

// sweep runs scs over a resource pool on workers workers, all runs
// reporting into o.
func sweep(t *testing.T, scs []Scenario, workers int, o *obs.Observer) []Report {
	t.Helper()
	pool := parsweep.NewPool(NewResources)
	errs := make([]error, len(scs))
	reps := parsweep.MapWith(len(scs), workers, pool, func(i int, res *Resources) Report {
		rep, err := RunWithRes(scs[i], o, res)
		errs[i] = err
		return rep
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return reps
}

// observerState is everything a swept observer accumulates.
type observerState struct {
	counters                  []int64
	steps, converge, handover [obs.Buckets]int64
}

func snapshot(o *obs.Observer) observerState {
	return observerState{
		counters: counterValues(reflect.ValueOf(&o.C).Elem()),
		steps:    o.StepMoves.Snapshot(), converge: o.ConvergeSteps.Snapshot(), handover: o.HandoverGap.Snapshot(),
	}
}

// counterValues loads every atomic.Int64 in v's fields and arrays, so a
// counter added to obs.Counters joins the comparison without an edit here.
func counterValues(v reflect.Value) []int64 {
	if c, ok := v.Addr().Interface().(*atomic.Int64); ok {
		return []int64{c.Load()}
	}
	var out []int64
	switch v.Kind() {
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			out = append(out, counterValues(v.Index(i))...)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			out = append(out, counterValues(v.Field(i))...)
		}
	}
	return out
}

// TestSweepObserverWorkerInvariant: the same sweep on one and on two
// workers leaves identical counters and histograms in the caller's
// observer — in particular HandoverGap, whose anchor a shared observer
// used to carry from one scenario's gains into another's in whatever
// order the workers interleaved them. It also checks that every tier
// reports each rule execution to the observer exactly once.
func TestSweepObserverWorkerInvariant(t *testing.T) {
	scs := sweepScenarios(16)
	var states [2]observerState
	for w := 1; w <= 2; w++ {
		o := obs.New(nil)
		reps := sweep(t, scs, w, o)
		states[w-1] = snapshot(o)
		if o.C.Handovers.Load() == 0 {
			t.Fatalf("workers=%d: sweep recorded no handovers", w)
		}
		var rules int64
		for _, rep := range reps {
			for _, e := range rep.Engines {
				rules += e.RuleExecutions
			}
		}
		if got := o.C.RuleFired.Load(); got != rules {
			t.Errorf("workers=%d: observer counted %d rule firings, the tiers executed %d", w, got, rules)
		}
	}
	if !reflect.DeepEqual(states[0], states[1]) {
		t.Fatalf("observer differs between 1 and 2 workers:\n1: %+v\n2: %+v", states[0], states[1])
	}
}

// TestConcurrentRunsMergeIntoSharedObserver runs scenarios concurrently,
// each goroutine with its own Resources and all merging into one shared
// observer with a real sink (the race detector's target), and checks that
// the merged counters equal a sequential run's.
func TestConcurrentRunsMergeIntoSharedObserver(t *testing.T) {
	scs := sweepScenarios(4)
	for i := range scs {
		scs[i].Horizon, scs[i].Faults = 3, scs[i].Faults[:1]
	}
	shared := obs.New(obs.NewJSONL(io.Discard))
	var wg sync.WaitGroup
	for i := range scs {
		wg.Add(1)
		go func(sc Scenario) {
			defer wg.Done()
			if _, err := RunWithRes(sc, shared, NewResources()); err != nil {
				t.Error(err)
			}
		}(scs[i])
	}
	wg.Wait()
	seq := obs.New(nil)
	sweep(t, scs, 1, seq)
	if got, want := snapshot(shared), snapshot(seq); !reflect.DeepEqual(got, want) {
		t.Fatalf("concurrent merge %+v, sequential %+v", got, want)
	}
}
