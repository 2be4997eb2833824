package msgnet_test

import (
	"math/rand"
	"testing"

	"ssrmin/internal/core"
	"ssrmin/internal/cst"
	"ssrmin/internal/msgnet"
	"ssrmin/internal/obs"
)

// kindCounter is a live sink that counts the events it receives by kind.
type kindCounter [obs.KindConverged + 1]int64

func (c *kindCounter) Emit(e obs.Event) { c[e.Kind]++ }

// TestPublishedCountsMatchEvents runs a CST ring over a lossy,
// duplicating and corrupting link — corrupt frames discarded by the
// checksum, rewritten by a Corrupt hook, and rewritten under churn — and
// checks after every Run and every churn step that the observer's
// published counters equal both the network's Stats, mapped as
// documented, and the events a live sink received: MsgSent = Sent,
// MsgRecv = Delivered, MsgDropped = Suppressed + Lost (+ Corrupted
// without a hook). Under churn, frames from ex-neighbours are delivered
// (so they count in Delivered and MsgRecv) and cst discards them into
// Node.StaleFrames.
func TestPublishedCountsMatchEvents(t *testing.T) {
	link := msgnet.LinkParams{Delay: 0.01, Jitter: 0.004, LossProb: 0.1, DupProb: 0.2, CorruptProb: 0.1}
	for _, tc := range []struct {
		name        string
		hook, churn bool
	}{{"checksum", false, false}, {"corrupt-hook", true, false}, {"churn", true, true}} {
		t.Run(tc.name, func(t *testing.T) {
			alg := core.New(6, 9)
			r := cst.NewRing[core.State](alg, alg.InitialLegitimate(), cst.Options[core.State]{
				Link: link, Refresh: 0.05, Seed: 3, Spare: 1, RandomState: alg.RandomState,
			})
			if tc.hook {
				r.Net.Corrupt = func(rng *rand.Rand, _ core.State) core.State { return alg.RandomState(rng) }
			}
			var events kindCounter
			o := obs.New(&events)
			r.Net.Obs = o
			stale := 0
			r.Net.Tap = func(e msgnet.TapEvent) {
				if e.Kind != msgnet.TapDeliver {
					return
				}
				if pred, succ := r.Nodes[e.Node].Neighbors(); !r.Active(e.Node) || (e.From != pred && e.From != succ) {
					stale++
				}
			}
			check := func(when string) {
				t.Helper()
				s := r.Net.Stats()
				drops := s.Suppressed + s.Lost
				if !tc.hook {
					drops += s.Corrupted
				}
				for _, c := range []struct {
					name                string
					pub, tally, emitted int64
				}{
					{"sent", o.C.MsgSent.Load(), int64(s.Sent), events[obs.KindMsgSent]},
					{"recv", o.C.MsgRecv.Load(), int64(s.Delivered), events[obs.KindMsgRecv]},
					{"dropped", o.C.MsgDropped.Load(), int64(drops), events[obs.KindMsgDropped]},
				} {
					if c.pub != c.tally || c.pub != c.emitted {
						t.Fatalf("%s: %s published %d, tallied %d, emitted %d", when, c.name, c.pub, c.tally, c.emitted)
					}
				}
			}
			for step := 1; step <= 8; step++ {
				r.Net.Run(msgnet.Time(step))
				check("after Run")
				if !tc.churn {
					continue
				}
				switch step {
				case 2:
					r.Splice(0, 2)
				case 3:
					r.Join(3, core.State{X: 4})
				case 5:
					r.Leave(4)
				}
				check("after churn")
			}
			s := r.Net.Stats()
			if s.Sent == 0 || s.Suppressed == 0 || s.Lost == 0 || s.Corrupted == 0 || s.Duplicated == 0 {
				t.Errorf("link faults not exercised: %+v", s)
			}
			discarded := 0
			for _, nd := range r.Nodes {
				discarded += nd.StaleFrames
			}
			if discarded != stale {
				t.Errorf("cst discarded %d stale frames, the network delivered %d", discarded, stale)
			}
			if tc.churn && stale == 0 {
				t.Error("no stale frame delivered: churn not exercised")
			}
		})
	}
}
