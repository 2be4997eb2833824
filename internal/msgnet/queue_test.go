package msgnet

import (
	"math/rand"
	"testing"

	"ssrmin/internal/evq"
)

// orderRun is one TestTimersFireInScheduleOrder network: every node
// answers timers and deliveries, while the budget lasts, with timers
// (kinds numbered in scheduling order) and sends to its ring neighbors.
type orderRun struct {
	t      *testing.T
	net    *Network[int]
	rng    *rand.Rand // the test's own draws, apart from the network's
	delays []Time     // timer delays: below, at and above the smallest link delay
	due    []Time     // due[kind] is the time the timer of that kind was set for
	fired  []firedTimer
	budget int
}

type firedTimer struct {
	at   Time
	kind int
}

type orderNode struct{ r *orderRun }

func (o orderNode) Start(ctx *Context[int]) { o.r.act(ctx) }

func (o orderNode) Receive(ctx *Context[int], from, payload int) { o.r.act(ctx) }

func (o orderNode) Timer(ctx *Context[int], kind int) {
	r := o.r
	if r.due[kind] != ctx.Now() {
		r.t.Fatalf("timer %d fired at %v, set for %v", kind, ctx.Now(), r.due[kind])
	}
	r.fired = append(r.fired, firedTimer{at: ctx.Now(), kind: kind})
	r.act(ctx)
}

// kind numbers a timer due at `at`.
func (r *orderRun) kind(at Time) int {
	r.due = append(r.due, at)
	return len(r.due) - 1
}

func (r *orderRun) delay() Time { return r.delays[r.rng.Intn(len(r.delays))] }

// act arms a timer and sends to a neighbor, each with even odds, while
// the budget lasts; zero-delay links would otherwise echo forever at one
// instant.
func (r *orderRun) act(ctx *Context[int]) {
	if r.budget <= 0 {
		return
	}
	r.budget--
	if r.rng.Intn(2) == 0 {
		d := r.delay()
		ctx.After(d, r.kind(ctx.Now()+d))
	}
	if n := len(ctx.net.handlers); r.rng.Intn(2) == 0 {
		ctx.Send((ctx.node+n+2*r.rng.Intn(2)-1)%n, ctx.node)
	}
}

// TestTimersFireInScheduleOrder checks the network's event order at the
// queue's epoch edges, whose width is the smallest link delay: over random
// per-link delays (zero among them) and a network with no links at all,
// timer delays below, at and above that width, and random Run windows
// with StartTimer and SendFrom calls between them, every timer fires at
// its time, in (at, kind) order with kinds numbered in scheduling order,
// and every timer due by the last window has fired.
func TestTimersFireInScheduleOrder(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const n = 6
		r := &orderRun{t: t, rng: rng, budget: 3000}
		handlers := make([]Handler[int], n)
		for i := range handlers {
			handlers[i] = orderNode{r}
		}
		r.net = New(handlers, seed)
		links := seed%8 != 0 // every eighth network has no links
		smallest := Time(1)
		if links {
			choices := []Time{0, 0.25, 0.5, 1, 2}
			smallest = 2
			for i := 0; i < n; i++ {
				for _, j := range []int{(i + 1) % n, (i + n - 1) % n} {
					p := LinkParams{Delay: choices[rng.Intn(len(choices))]}
					if rng.Intn(3) == 0 {
						p.Jitter = 0.1
					}
					smallest = min(smallest, p.Delay)
					r.net.AddLink(i, j, p)
				}
			}
		}
		r.delays = []Time{0, smallest / 2, smallest, 1.5 * smallest, 3 * smallest, 0.05, 0.7}
		until := Time(0)
		for w := 0; w < 25; w++ {
			until += Time(rng.Float64()) * 2 * max(smallest, 0.25)
			r.net.Run(until)
			for k := rng.Intn(4); k > 0; k-- {
				node, d := rng.Intn(n), r.delay()
				r.net.StartTimer(node, d, r.kind(r.net.Now()+d))
			}
			if from := rng.Intn(n); rng.Intn(2) == 0 {
				r.net.SendFrom(from, (from+1)%n, from)
			}
		}
		r.net.Run(until) // fire what the calls after the last window set for until itself
		if r.net.Stats().Timers == 0 {
			t.Fatalf("seed %d: no timer fired", seed)
		}
		for i := 1; i < len(r.fired); i++ {
			a, b := r.fired[i-1], r.fired[i]
			if b.at < a.at || (b.at == a.at && b.kind < a.kind) {
				t.Fatalf("seed %d: timer %d (at %v) fired after timer %d (at %v)", seed, b.kind, b.at, a.kind, a.at)
			}
		}
		firedKind := make([]bool, len(r.due))
		for _, f := range r.fired {
			firedKind[f.kind] = true
		}
		for kind, at := range r.due {
			if at <= until && !firedKind[kind] {
				t.Fatalf("seed %d: timer %d due at %v never fired (ran to %v)", seed, kind, at, until)
			}
		}
	}
}

// TestArenaResetKeepsCapacity pins reset-not-reallocate: Reset empties
// the arena but keeps the grown queue storage for the next simulation.
func TestArenaResetKeepsCapacity(t *testing.T) {
	a := NewArena[string]()
	for i := 0; i < 100; i++ {
		a.q.Push(evq.Rec[event[string]]{At: float64(i), Key: uint64(i), Body: event[string]{load: "x"}})
	}
	grown := a.Cap()
	if grown < 100 {
		t.Fatalf("Cap = %d after 100 pushes", grown)
	}
	a.Reset()
	if a.Len() != 0 {
		t.Fatalf("Len = %d after Reset", a.Len())
	}
	if a.Cap() != grown {
		t.Fatalf("Reset dropped capacity: %d -> %d", grown, a.Cap())
	}
}
