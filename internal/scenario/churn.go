package scenario

import (
	"errors"
	"fmt"
	"sort"

	"ssrmin/internal/topo"
)

// ChurnPlan simulates the ring-membership trajectory a fault script's
// churn events produce on an n-node ring, in injection (time) order. It
// returns the number of joins (= the spare nodes the ring must
// preallocate) and the largest ring size reached (the K > maxSize bound
// every execution tier needs), or an error when the plan is unrealizable:
// an event anchored on a node that is not a member at that time, node 0
// (the Dijkstra bottom the stabilization argument hangs on) leaving, or
// the ring shrinking below 3 members. Joined nodes get ids n, n+1, ... in
// join order and are valid anchors for later events.
func ChurnPlan(n int, faults []Fault) (joins, maxSize int, err error) {
	return Replay(n, faults, nil)
}

// Ordered returns a copy of a fault script in injection order: by time,
// simultaneous faults in script order.
func Ordered(faults []Fault) []Fault {
	out := append([]Fault(nil), faults...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Replay walks a fault script in injection order on an n-node ring,
// rewiring a topo.Ring at its churn events, and calls visit (when
// non-nil) with every fault and the ring members at the instant it
// applies: in ring order from node 0, before a churn event's own change.
// visit must not keep members. It returns what ChurnPlan does, failing
// at the first unrealizable churn event.
func Replay(n int, faults []Fault, visit func(f Fault, members []int)) (joins, maxSize int, err error) {
	ordered := Ordered(faults)
	for _, f := range ordered {
		if f.Type == "join" {
			joins++
		}
	}
	ring := topo.New(n, joins)
	var members []int // ring.Members(), walked only when a visit needs it
	maxSize = n
	for _, f := range ordered {
		if visit != nil {
			if members == nil {
				members = ring.Members()
			}
			visit(f, members)
		}
		if !f.IsChurn() {
			continue
		}
		count := f.Count
		switch f.Type {
		case "join":
			_, _, err = ring.Join(f.Node)
		case "leave":
			_, _, _, err = ring.Remove(f.Node, 1)
		case "splice":
			if count == 0 {
				count = 1
			}
			_, _, _, err = ring.Splice(f.Node, count)
		}
		switch {
		case errors.Is(err, topo.ErrNotMember):
			return 0, 0, fmt.Errorf("churn plan: %s at t=%v anchored on %d, not a ring member then", f.Type, f.At, f.Node)
		case errors.Is(err, topo.ErrCount):
			return 0, 0, fmt.Errorf("churn plan: splice at t=%v has negative count", f.At)
		case errors.Is(err, topo.ErrTooSmall) && f.Type == "leave":
			return 0, 0, fmt.Errorf("churn plan: leave at t=%v shrinks the ring below 3 members", f.At)
		case errors.Is(err, topo.ErrTooSmall):
			return 0, 0, fmt.Errorf("churn plan: splice of %d at t=%v shrinks the ring below 3 members", count, f.At)
		case errors.Is(err, topo.ErrBottom):
			return 0, 0, fmt.Errorf("churn plan: %s at t=%v removes node 0 (bottom)", f.Type, f.At)
		}
		maxSize = max(maxSize, ring.Count())
		members = nil
	}
	return joins, maxSize, nil
}
