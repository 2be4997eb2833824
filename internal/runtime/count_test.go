package runtime

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"ssrmin/internal/core"
	"ssrmin/internal/obs"
)

// eventCounter is a live sink that counts the events it receives by kind
// and rule executions by rule number; worker loops emit concurrently.
type eventCounter struct {
	kinds [obs.KindConverged + 1]atomic.Int64
	rules [obs.MaxRules]atomic.Int64
}

func (c *eventCounter) Emit(e obs.Event) {
	c.kinds[e.Kind].Add(1)
	if e.Kind == obs.KindRuleFired {
		c.rules[e.Rule].Add(1)
	}
}

// staleFrames sums the shards' stale-frame tallies.
func staleFrames(e *Engine[core.State]) int64 {
	var n int64
	for i := range e.shards {
		n += e.shards[i].tally[tapStale]
	}
	return n
}

// TestEnginePublishedCountsMatchEvents runs a lossy engine at 1 to 4
// workers, and a churning one, and checks after every RunUntil that the
// observer's published counters equal both the engine's Stats, mapped as
// documented, and the events a live sink received: MsgSent = Sent,
// MsgRecv = Carried, MsgDropped = Dropped minus the stale frames,
// RuleFired = Rules, and Rules[r] the rule-r events. Frames that die at a
// departed node or come from an ex-neighbour count in Dropped only.
func TestEnginePublishedCountsMatchEvents(t *testing.T) {
	for _, w := range []int{1, 2, 3, 4, 0} {
		churn := w == 0
		name := fmt.Sprintf("w=%d", w)
		if churn {
			name = "churn"
		}
		t.Run(name, func(t *testing.T) {
			opts := engineOpts(5, w)
			opts.LossProb = 0.1
			opts.Spare = 1
			if !churn {
				opts.Spare = 0
			}
			a := core.New(8, 11)
			e := NewEngine[core.State](a, a.InitialLegitimate(), opts)
			if churn {
				e.ScheduleSplice(0.5, 0, 2)
				e.ScheduleJoin(1, 3, core.State{X: 4})
				e.ScheduleLeave(1.5, 4)
			}
			var events eventCounter
			o := obs.New(&events)
			e.SetObserver(o, core.HasToken)
			defer e.Stop()
			for step := 1; step <= 10; step++ {
				e.RunUntil(float64(step) * 0.25)
				s := e.Stats()
				stale := staleFrames(e)
				for _, c := range []struct {
					name                string
					pub, tally, emitted int64
				}{
					{"sent", o.C.MsgSent.Load(), s.Sent, events.kinds[obs.KindMsgSent].Load()},
					{"recv", o.C.MsgRecv.Load(), s.Carried, events.kinds[obs.KindMsgRecv].Load()},
					{"dropped", o.C.MsgDropped.Load(), s.Dropped - stale, events.kinds[obs.KindMsgDropped].Load()},
					{"rules", o.C.RuleFired.Load(), s.Rules, events.kinds[obs.KindRuleFired].Load()},
				} {
					if c.pub != c.tally || c.pub != c.emitted {
						t.Fatalf("t=%v: %s published %d, tallied %d, emitted %d", e.Now(), c.name, c.pub, c.tally, c.emitted)
					}
				}
				for r := range events.rules {
					if pub, emitted := o.C.Rules[r].Load(), events.rules[r].Load(); pub != emitted {
						t.Fatalf("t=%v: rule %d published %d, emitted %d", e.Now(), r, pub, emitted)
					}
				}
			}
			if s := e.Stats(); s.Sent == 0 || s.Carried == 0 || s.Rules == 0 || s.Dropped == 0 {
				t.Fatalf("degenerate run: %+v", s)
			}
			if stale := staleFrames(e); churn != (stale > 0) {
				t.Errorf("churn %v but %d stale frames", churn, stale)
			}
		})
	}
}

// TestEnginePacedPublishes runs the paced engine on two workers with an
// observer: while it runs, the published MsgSent is positive and never
// ahead of the engine's own count; after Stop the two are equal.
func TestEnginePacedPublishes(t *testing.T) {
	_, e := newSSRminEngine(6, 7, Options[core.State]{
		Delay:          500 * time.Microsecond,
		Jitter:         200 * time.Microsecond,
		Refresh:        2 * time.Millisecond,
		Seed:           4,
		CoherentCaches: true,
		Workers:        2,
	})
	o := obs.New(nil)
	e.SetObserver(o, core.HasToken)
	e.Start()
	defer e.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for samples := 0; samples < 50; {
		pub := o.C.MsgSent.Load()
		if sent := e.Stats().Sent; pub > sent {
			t.Fatalf("published MsgSent %d ahead of Stats().Sent %d", pub, sent)
		}
		if pub > 0 {
			samples++
		} else if time.Now().After(deadline) {
			t.Fatal("nothing published while running")
		}
		time.Sleep(2 * time.Millisecond)
	}
	e.Stop()
	if pub, sent := o.C.MsgSent.Load(), e.Stats().Sent; pub != sent {
		t.Fatalf("after Stop: published MsgSent %d, Stats().Sent %d", pub, sent)
	}
}
