// Package obsguard is the fixture for the obsguard analyzer: unguarded
// observer/sink calls and stray event allocation, next to each guard
// idiom the repository actually uses.
package obsguard

import "ssrmin/internal/obs"

// Net mimics a hot-path simulation struct carrying optional
// observability.
type Net struct {
	Obs  *obs.Observer
	sink obs.Sink
	now  int
}

// BadSend fires an observer method with no nil check in sight.
func (n *Net) BadSend(from, to int) {
	n.Obs.RuleFired(float64(n.now), from, to) // want `hot-path call n.Obs.RuleFired on \*obs.Observer is not dominated by a nil check`
}

// BadSink calls through the interface field unguarded: a latent panic,
// and the event literal allocates on the no-observer path.
func (n *Net) BadSink() {
	n.sink.Emit(obs.Event{Kind: obs.KindMsgSent}) // want `hot-path call n.sink.Emit on obs.Sink is not dominated by a nil check` `obs.Event constructed outside an observer nil-guard`
}

// BadEvent allocates an event outside any guard.
func (n *Net) BadEvent() obs.Event {
	ev := obs.Event{Kind: obs.KindRuleFired, Node: 1} // want `obs.Event constructed outside an observer nil-guard`
	return ev
}

// GoodSend uses the bind-and-check idiom.
func (n *Net) GoodSend(from, to int) {
	if o := n.Obs; o != nil {
		o.RuleFired(float64(n.now), from, to)
	}
}

// GoodField checks the field expression itself.
func (n *Net) GoodField() {
	if n.Obs != nil {
		n.Obs.Step(float64(n.now), 1)
	}
}

// GoodEarly guards with an early return.
func (n *Net) GoodEarly(moves int) {
	if n.Obs == nil {
		return
	}
	n.Obs.Step(float64(n.now), moves)
}

// GoodEvent confines allocation to the sink-present branch.
func (n *Net) GoodEvent() {
	if n.sink != nil {
		n.sink.Emit(obs.Event{Kind: obs.KindHandover, Node: 2, Gained: true})
	}
}

// GoodChained: inside the observer guard even a dynamically obtained
// sink passes.
func (n *Net) GoodChained() {
	if o := n.Obs; o != nil {
		o.LiveSink().Emit(obs.Event{Kind: obs.KindConverged})
	}
}

// WaivedSend demonstrates an inline suppression with a reason.
func (n *Net) WaivedSend() {
	n.Obs.Step(float64(n.now), 0) //lint:ignore obsguard cold path, called once at shutdown
}
