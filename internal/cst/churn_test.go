package cst

import (
	"reflect"
	"testing"

	"ssrmin/internal/core"
	"ssrmin/internal/msgnet"
)

// churnRing builds an SSRmin ring with spare capacity for joins. K is
// sized for the largest ring the tests grow to.
func churnRing(n, k, spare int) (*core.Algorithm, *Ring[core.State]) {
	a := core.New(n, k)
	opts := defaultOpts()
	opts.Spare = spare
	return a, NewRing[core.State](a, a.InitialLegitimate(), opts)
}

func TestSpareNodesStayDormant(t *testing.T) {
	_, r := churnRing(5, 9, 2)
	if got := len(r.Members()); got != 5 {
		t.Fatalf("%d members, want 5", got)
	}
	for i := 5; i < 7; i++ {
		if r.Active(i) {
			t.Errorf("spare %d active before join", i)
		}
		if !r.Nodes[i].Detached() {
			t.Errorf("spare %d not detached", i)
		}
	}
	r.Net.Run(2)
	for i := 5; i < 7; i++ {
		if r.Nodes[i].RuleExecutions != 0 || r.Nodes[i].StaleFrames != 0 {
			t.Errorf("dormant spare %d saw traffic", i)
		}
	}
	if got := r.Members(); !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4}) {
		t.Errorf("Members = %v", got)
	}
}

func TestJoinExtendsRing(t *testing.T) {
	_, r := churnRing(5, 9, 2)
	r.Net.Run(1)
	j := r.Join(2, core.State{X: 3})
	if j != 5 {
		t.Fatalf("joiner id = %d, want 5", j)
	}
	if got := r.Members(); !reflect.DeepEqual(got, []int{0, 1, 2, 5, 3, 4}) {
		t.Fatalf("Members after join = %v", got)
	}
	if len(r.Members()) != 6 || !r.Active(5) {
		t.Fatal("joiner not counted as member")
	}
	// The grown ring still circulates: the privilege visits every member,
	// including the joiner, and the census settles back into [1,2].
	visited := make(map[int]bool)
	r.Net.Observer = func(now msgnet.Time) {
		for _, h := range r.Holders(core.HasToken) {
			visited[h] = true
		}
	}
	r.Net.Run(8)
	for _, m := range r.Members() {
		if !visited[m] {
			t.Errorf("privilege never visited member %d after join", m)
		}
	}
	if c := r.Census(core.HasToken); c < 1 || c > 2 {
		t.Errorf("census = %d after settling, want 1..2", c)
	}
}

func TestLeaveShrinksRing(t *testing.T) {
	_, r := churnRing(5, 9, 0)
	r.Net.Run(1)
	r.Leave(2)
	if got := r.Members(); !reflect.DeepEqual(got, []int{0, 1, 3, 4}) {
		t.Fatalf("Members after leave = %v", got)
	}
	if r.Active(2) || !r.Nodes[2].Detached() {
		t.Fatal("left node still attached")
	}
	visited := make(map[int]bool)
	r.Net.Observer = func(now msgnet.Time) {
		for _, h := range r.Holders(core.HasToken) {
			visited[h] = true
		}
	}
	r.Net.Run(8)
	for _, m := range r.Members() {
		if !visited[m] {
			t.Errorf("privilege never visited member %d after leave", m)
		}
	}
	if c := r.Census(core.HasToken); c < 1 || c > 2 {
		t.Errorf("census = %d after settling, want 1..2", c)
	}
}

func TestSpliceRemovesArcAndDiscardsStaleFrames(t *testing.T) {
	_, r := churnRing(6, 9, 0)
	r.Net.Run(1)
	r.Splice(0, 2) // removes members 1 and 2, reconnects 0—3
	if got := r.Members(); !reflect.DeepEqual(got, []int{0, 3, 4, 5}) {
		t.Fatalf("Members after splice = %v", got)
	}
	if r.Nodes[0].succ() != 3 || r.Nodes[3].pred() != 0 {
		t.Fatal("splice did not reconnect 0—3")
	}
	r.Net.Run(8)
	// The announce storm keeps every link busy, so the splice is all but
	// guaranteed to catch frames mid-flight on removed links; survivors
	// must have discarded them rather than poison their caches.
	stale := 0
	for _, nd := range r.Nodes {
		stale += nd.StaleFrames
	}
	if stale == 0 {
		t.Error("no stale frames discarded — splice dynamics not exercised")
	}
	if c := r.Census(core.HasToken); c < 1 || c > 2 {
		t.Errorf("census = %d after settling, want 1..2", c)
	}
}

func TestJoinAfterSpliceReusesFreshSpare(t *testing.T) {
	_, r := churnRing(5, 9, 1)
	r.Net.Run(1)
	r.Leave(3)
	j := r.Join(1, core.State{X: 2})
	if got := r.Members(); !reflect.DeepEqual(got, []int{0, 1, j, 2, 4}) {
		t.Fatalf("Members = %v", got)
	}
	r.Net.Run(8)
	if c := r.Census(core.HasToken); c < 1 || c > 2 {
		t.Errorf("census = %d after churn sequence, want 1..2", c)
	}
}

func TestChurnGuards(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   func(r *Ring[core.State])
	}{
		{"leave bottom", func(r *Ring[core.State]) { r.Leave(0) }},
		{"leave non-member", func(r *Ring[core.State]) { r.Leave(1); r.Leave(1) }},
		{"shrink below 3", func(r *Ring[core.State]) { r.Leave(1); r.Leave(2) }},
		{"splice through bottom", func(r *Ring[core.State]) { r.Splice(3, 2) }},
		{"splice whole ring", func(r *Ring[core.State]) { r.Splice(0, 4) }},
		{"join without spare", func(r *Ring[core.State]) { r.Join(0, core.State{}) }},
		{"join dead anchor", func(r *Ring[core.State]) { r.Leave(1); r.Join(1, core.State{}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, r := churnRing(4, 9, 0)
			r.Net.Run(0.5)
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			tc.op(r)
		})
	}
}

func TestChurnDeterministic(t *testing.T) {
	trace := func() []int {
		_, r := churnRing(5, 9, 1)
		r.Net.Run(1)
		r.Join(2, core.State{X: 4})
		r.Net.Run(3)
		r.Splice(0, 1)
		r.Net.Run(6)
		var sig []int
		for _, nd := range r.Nodes {
			sig = append(sig, nd.RuleExecutions, nd.StaleFrames)
		}
		sig = append(sig, r.Net.Stats().Delivered, r.Net.Stats().Suppressed)
		return sig
	}
	if a, b := trace(), trace(); !reflect.DeepEqual(a, b) {
		t.Fatalf("churn run not deterministic:\n%v\n%v", a, b)
	}
}
