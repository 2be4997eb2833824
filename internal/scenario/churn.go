package scenario

import (
	"fmt"
	"sort"
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
// tracking the membership its churn events produce, and calls visit (when
// non-nil) with every fault and the ring members at the instant it
// applies: in ring order from node 0, before a churn event's own change.
// visit must not keep members. It returns what ChurnPlan does, failing
// at the first unrealizable churn event.
func Replay(n int, faults []Fault, visit func(f Fault, members []int)) (joins, maxSize int, err error) {
	ring := make([]int, n)
	for i := range ring {
		ring[i] = i
	}
	maxSize = n

	idxOf := func(node int) int {
		for i, v := range ring {
			if v == node {
				return i
			}
		}
		return -1
	}

	for _, f := range Ordered(faults) {
		if visit != nil {
			visit(f, ring)
		}
		if !f.IsChurn() {
			continue
		}
		at := idxOf(f.Node)
		if at < 0 {
			return 0, 0, fmt.Errorf("churn plan: %s at t=%v anchored on %d, not a ring member then", f.Type, f.At, f.Node)
		}
		switch f.Type {
		case "join":
			j := n + joins
			joins++
			ring = append(ring, 0)
			copy(ring[at+2:], ring[at+1:])
			ring[at+1] = j
			if len(ring) > maxSize {
				maxSize = len(ring)
			}
		case "leave":
			if f.Node == 0 {
				return 0, 0, fmt.Errorf("churn plan: leave at t=%v removes node 0 (bottom)", f.At)
			}
			if len(ring)-1 < 3 {
				return 0, 0, fmt.Errorf("churn plan: leave at t=%v shrinks the ring below 3 members", f.At)
			}
			ring = append(ring[:at], ring[at+1:]...)
		case "splice":
			count := f.Count
			if count == 0 {
				count = 1
			}
			if count < 0 {
				return 0, 0, fmt.Errorf("churn plan: splice at t=%v has negative count", f.At)
			}
			if len(ring)-count < 3 {
				return 0, 0, fmt.Errorf("churn plan: splice of %d at t=%v shrinks the ring below 3 members", count, f.At)
			}
			// ring[0] is always node 0 (it can never be removed), so an
			// arc running past the end of the slice would wrap onto it.
			for i := 0; i < count; i++ {
				victim := at + 1
				if victim >= len(ring) || ring[victim] == 0 {
					return 0, 0, fmt.Errorf("churn plan: splice at t=%v removes node 0 (bottom)", f.At)
				}
				ring = append(ring[:victim], ring[victim+1:]...)
			}
		}
	}
	return joins, maxSize, nil
}
