package runtime

import (
	"fmt"
	"reflect"
	"testing"

	"ssrmin/internal/core"
	"ssrmin/internal/digest"
)

// churnEngine builds an SSRmin engine with spare capacity for joins; K is
// sized for the largest ring the tests grow to.
func churnEngine(n, k, spare int, seed int64) (*core.Algorithm, *Engine[core.State]) {
	a := core.New(n, k)
	opts := engineOpts(seed, 0)
	opts.Spare = spare
	return a, NewEngine[core.State](a, a.InitialLegitimate(), opts)
}

func TestEngineChurnClampsToOneWorker(t *testing.T) {
	_, e := churnEngine(6, 9, 1, 1)
	e.ScheduleJoin(0.5, 2, core.State{X: 3})
	e.RunUntil(0.01)
	if w := e.Workers(); w != 1 {
		t.Fatalf("Workers = %d with churn scheduled, want 1", w)
	}
}

// TestScheduleInjectReachesJoiner: a pre-scheduled inject may name a
// spare; it lands once a scheduled join has woken the spare, while an
// inject into a node that left before its instant is dropped.
func TestScheduleInjectReachesJoiner(t *testing.T) {
	_, e := churnEngine(4, 7, 1, 1)
	e.EnableTaps()
	e.ScheduleJoin(1, 2, core.State{X: 3})
	e.ScheduleLeave(1.5, 3)
	e.ScheduleInject(2, 4, core.State{X: 5, RTS: true})
	e.ScheduleInject(2, 3, core.State{X: 5, RTS: true})
	e.RunUntil(2.5)
	e.Stop()
	var hit []int32
	for _, tp := range e.Taps() {
		if tp.Kind == TapInject {
			hit = append(hit, tp.Src)
		}
	}
	if !reflect.DeepEqual(hit, []int32{4}) {
		t.Fatalf("injects landed on %v, want only the joiner 4", hit)
	}
}

func TestEngineJoinExtendsRing(t *testing.T) {
	_, e := churnEngine(5, 9, 2, 1)
	e.ScheduleJoin(1.0, 2, core.State{X: 3})
	e.RunUntil(0.5)
	if got := e.Members(); !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("Members before join = %v", got)
	}
	// The join instant perturbs the census (stale caches on the rewired
	// edges) — that transient is what the monitors' settle windows grace.
	// Let it settle, then the bounds must hold again.
	e.RunUntil(2.5)
	if got := e.Members(); !reflect.DeepEqual(got, []int{0, 1, 2, 5, 3, 4}) {
		t.Fatalf("Members after join = %v", got)
	}
	if got := len(e.Members()); got != 6 {
		t.Fatalf("%d members, want 6", got)
	}
	minC, maxC, seen := sampleCensus(e, 6)
	if minC < 1 || maxC > 2 {
		t.Errorf("census range [%d, %d] after join settled, want within [1, 2]", minC, maxC)
	}
	if !seen[5] {
		t.Error("privilege never visited the joiner")
	}
}

func TestEngineLeaveShrinksRing(t *testing.T) {
	_, e := churnEngine(5, 9, 0, 1)
	e.ScheduleLeave(1.0, 3)
	e.RunUntil(2.5) // settle past the leave transient
	minC, maxC, seen := sampleCensus(e, 8)
	if got := e.Members(); !reflect.DeepEqual(got, []int{0, 1, 2, 4}) {
		t.Fatalf("Members after leave = %v", got)
	}
	if minC < 1 || maxC > 2 {
		t.Errorf("census range [%d, %d] after leave settled, want within [1, 2]", minC, maxC)
	}
	for _, m := range e.Members() {
		if !seen[m] {
			t.Errorf("privilege never visited survivor %d", m)
		}
	}
	if len(e.Holders(core.HasToken)) > 0 {
		for _, h := range e.Holders(core.HasToken) {
			if h == 3 {
				t.Error("detached node 3 still reported as holder")
			}
		}
	}
}

func TestEngineSpliceDropsStaleFrames(t *testing.T) {
	_, e := churnEngine(6, 9, 0, 1)
	e.ScheduleSplice(1.0, 0, 2) // removes members 1 and 2
	before := e.Stats()
	e.RunUntil(2.5) // settle past the splice transient
	minC, maxC, _ := sampleCensus(e, 8)
	if got := e.Members(); !reflect.DeepEqual(got, []int{0, 3, 4, 5}) {
		t.Fatalf("Members after splice = %v", got)
	}
	if minC < 1 || maxC > 2 {
		t.Errorf("census range [%d, %d] after splice settled, want within [1, 2]", minC, maxC)
	}
	// Frames in flight toward the removed arc (or from ex-neighbors)
	// must be dropped, not delivered into stale cache slots.
	if after := e.Stats(); after.Dropped == before.Dropped {
		t.Log("note: no stale frames were in flight at the splice instant")
	}
}

// churnDigest hashes the taps, stats and final membership of a join, a
// leave and a splice on one seeded ring.
func churnDigest() string {
	_, e := churnEngine(6, 10, 1, 7)
	e.EnableTaps()
	e.ScheduleJoin(0.8, 3, core.State{X: 5})
	e.ScheduleLeave(2.0, 4)
	e.ScheduleSplice(4.0, 0, 2)
	e.RunUntil(8)
	h := digest.New()
	for _, tap := range e.Taps() {
		fmt.Fprintf(h, "%+v\n", tap)
	}
	fmt.Fprintf(h, "%+v\n%v\n", e.Stats(), e.Members())
	return digest.Sum(h)
}

// TestEngineChurnMatchesReference pins a churning run to
// testdata/digests/runtime-churn.sha256, recorded from the reference
// engine.
func TestEngineChurnMatchesReference(t *testing.T) {
	digest.Check(t, "runtime-churn.sha256", churnDigest())
}

func TestEngineChurnGuards(t *testing.T) {
	t.Run("leave bottom", func(t *testing.T) {
		_, e := churnEngine(5, 9, 0, 1)
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		e.ScheduleLeave(1, 0)
		e.RunUntil(5)
	})
	t.Run("shrink below 3", func(t *testing.T) {
		_, e := churnEngine(4, 9, 0, 1)
		e.ScheduleLeave(1, 1)
		e.ScheduleLeave(2, 2)
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		e.RunUntil(5)
	})
	t.Run("splice through bottom", func(t *testing.T) {
		_, e := churnEngine(6, 9, 0, 1)
		e.ScheduleSplice(1, 4, 3)
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		e.RunUntil(5)
	})
	t.Run("join without spare", func(t *testing.T) {
		_, e := churnEngine(5, 9, 0, 1)
		e.ScheduleJoin(1, 0, core.State{})
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		e.RunUntil(5)
	})
	t.Run("churn after freeze", func(t *testing.T) {
		_, e := churnEngine(5, 9, 1, 1)
		e.RunUntil(1)
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		e.ScheduleJoin(2, 0, core.State{})
	})
}

func TestEngineChurnDeterministic(t *testing.T) {
	run := func() ([]TapEvent, EngineStats) {
		_, e := churnEngine(6, 10, 2, 3)
		e.EnableTaps()
		e.ScheduleJoin(0.7, 1, core.State{X: 2})
		e.ScheduleSplice(2.5, 0, 2)
		e.ScheduleJoin(4.0, 0, core.State{X: 7})
		e.RunUntil(8)
		return e.Taps(), e.Stats()
	}
	t1, s1 := run()
	t2, s2 := run()
	if s1 != s2 || !reflect.DeepEqual(t1, t2) {
		t.Fatal("churn execution not deterministic across identical runs")
	}
}

// TestEngineTrackedCensusAcrossChurn pins the shard-local census
// accumulators against the O(n) snapshot scan through every churn kind:
// the joiner's initial view must be counted, leavers and spliced arcs
// must be uncounted, and the running notifyPriv increments must keep the
// two answers equal at every sample point in between.
func TestEngineTrackedCensusAcrossChurn(t *testing.T) {
	_, e := churnEngine(6, 12, 2, 3)
	e.SetPrivilegeCallback(core.HasToken, nil)
	e.ScheduleJoin(0.6, 2, core.State{X: 3})
	e.ScheduleLeave(1.1, 4)
	e.ScheduleSplice(1.6, 0, 2)
	for h := 0.1; h < 2.6; h += 0.1 {
		e.RunUntil(h)
		tracked, ok := e.TrackedCensus()
		if !ok {
			t.Fatal("TrackedCensus unavailable with a privilege callback installed")
		}
		if scan := e.Census(core.HasToken); tracked != scan {
			t.Fatalf("t=%v: tracked census %d != scanned census %d (members %v)",
				h, tracked, scan, e.Members())
		}
	}
}
