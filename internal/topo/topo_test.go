package topo

import (
	"errors"
	"slices"
	"testing"
)

func TestChurnSequence(t *testing.T) {
	r := New(6, 2)
	if r.Count() != 6 || r.Pred[0] != 5 || r.Succ[5] != 0 || r.Pred[6] != -1 || r.Succ[7] != -1 {
		t.Fatalf("New(6, 2) = %+v", r)
	}
	if j, b, err := r.Join(2); err != nil || j != 6 || b != 3 {
		t.Fatalf("Join(2) = %d, %d, %v", j, b, err)
	}
	if a, b, gone, err := r.Remove(4, 1); err != nil || a != 3 || b != 5 || !slices.Equal(gone, []int{4}) {
		t.Fatalf("Remove(4, 1) = %d, %d, %v, %v", a, b, gone, err)
	}
	if a, b, gone, err := r.Splice(0, 2); err != nil || a != 0 || b != 6 || !slices.Equal(gone, []int{1, 2}) {
		t.Fatalf("Splice(0, 2) = %d, %d, %v, %v", a, b, gone, err)
	}
	if j, b, err := r.Join(6); err != nil || j != 7 || b != 3 {
		t.Fatalf("Join(6) = %d, %d, %v", j, b, err)
	}
	if got := r.Members(); !slices.Equal(got, []int{0, 6, 7, 3, 5}) {
		t.Fatalf("Members = %v", got)
	}
}

func TestRejections(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   func(r *Ring) error
		want error
	}{
		{"leave bottom", func(r *Ring) error { _, _, _, err := r.Remove(0, 1); return err }, ErrBottom},
		{"splice onto bottom", func(r *Ring) error { _, _, _, err := r.Splice(3, 2); return err }, ErrBottom},
		{"shrink below 3", func(r *Ring) error { _, _, _, err := r.Splice(0, 3); return err }, ErrTooSmall},
		{"zero count", func(r *Ring) error { _, _, _, err := r.Remove(1, 0); return err }, ErrCount},
		{"remove spare", func(r *Ring) error { _, _, _, err := r.Remove(5, 1); return err }, ErrNotMember},
		{"splice after spare", func(r *Ring) error { _, _, _, err := r.Splice(5, 1); return err }, ErrNotMember},
		{"splice after unknown id", func(r *Ring) error { _, _, _, err := r.Splice(-3, 1); return err }, ErrNotMember},
		{"join after unknown id", func(r *Ring) error { _, _, err := r.Join(99); return err }, ErrNotMember},
		{"join without spare", func(r *Ring) error {
			r.Join(0)
			_, _, err := r.Join(0)
			return err
		}, ErrNoSpare},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := New(5, 1)
			if err := tc.op(&r); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// FuzzTopology runs random join, leave and splice sequences, driven by
// fuzzed bytes, against a slice model of the ring in order from node 0.
// A change the model accepts must leave both with the same members and
// neighbours; a change it rejects must return an error and leave the
// ring exactly as it was. Nothing may panic.
func FuzzTopology(f *testing.F) {
	f.Add(uint8(5), uint8(3), []byte{0, 2, 1, 3, 2, 0, 2})
	f.Add(uint8(3), uint8(0), []byte{1, 1, 1, 0, 2, 2})
	f.Add(uint8(8), uint8(4), []byte{2, 0, 3, 0, 1, 4, 0, 7, 2, 6, 2, 1, 5, 1})
	f.Add(uint8(4), uint8(2), []byte{0, 3, 0, 4, 1, 4, 2, 5, 1, 1, 1, 0})
	f.Fuzz(func(t *testing.T, n, spare uint8, ops []byte) {
		size, capacity := 1+int(n%12), 1+int(n%12)+int(spare%8)
		r := New(size, capacity-size)
		model := make([]int, size)
		for i := range model {
			model[i] = i
		}
		next := size
		at := func(id int) int { return slices.Index(model, id) }
		for len(ops) >= 3 {
			kind, node, count := ops[0]%3, int(ops[1])-4, int(ops[2]%6)-1
			ops = ops[3:]
			before := snapshot(&r)
			var err error
			var ok bool
			switch kind {
			case 0: // join
				ok = at(node) >= 0 && next < capacity
				var j, b int
				j, b, err = r.Join(node)
				if ok {
					if err == nil && (j != next || b != model[(at(node)+1)%len(model)]) {
						t.Fatalf("Join(%d) = %d, %d on %v", node, j, b, model)
					}
					model = slices.Insert(model, at(node)+1, next)
					next++
				}
			case 1: // leave
				p := at(node)
				ok = p >= 0 && node != 0 && len(model) > 3
				_, _, _, err = r.Remove(node, 1)
				if ok {
					model = slices.Delete(model, p, p+1)
				}
			case 2: // splice
				p := at(node)
				ok = p >= 0 && count >= 1 && len(model)-count >= 3 && p+count < len(model)
				_, _, _, err = r.Splice(node, count)
				if ok {
					model = slices.Delete(model, p+1, p+1+count)
				}
			}
			if ok != (err == nil) {
				t.Fatalf("op %d on node %d (count %d) of %v: model ok=%v, ring err=%v", kind, node, count, model, ok, err)
			}
			if err != nil {
				if after := snapshot(&r); !slices.Equal(after, before) {
					t.Fatalf("rejected op %d on node %d changed the ring: %v -> %v", kind, node, before, after)
				}
				continue
			}
			check(t, &r, model, capacity)
		}
	})
}

// snapshot is every observable field of the ring.
func snapshot(r *Ring) []int {
	s := []int{r.count, r.spare}
	for i := range r.Pred {
		s = append(s, int(r.Pred[i]), int(r.Succ[i]))
	}
	return s
}

// check compares the ring with the model: same members in the same
// order, neighbours that close the cycle, non-members unwired.
func check(t *testing.T, r *Ring, model []int, capacity int) {
	t.Helper()
	if got := r.Members(); !slices.Equal(got, model) || r.Count() != len(model) {
		t.Fatalf("Members = %v (count %d), model %v", got, r.Count(), model)
	}
	for k, v := range model {
		if int(r.Succ[v]) != model[(k+1)%len(model)] || int(r.Pred[v]) != model[(k-1+len(model))%len(model)] {
			t.Fatalf("node %d has neighbours %d, %d in %v", v, r.Pred[v], r.Succ[v], model)
		}
	}
	for i := 0; i < capacity; i++ {
		if !slices.Contains(model, i) && (r.Pred[i] != -1 || r.Succ[i] != -1) {
			t.Fatalf("non-member %d is wired in (%d, %d)", i, r.Pred[i], r.Succ[i])
		}
	}
}
