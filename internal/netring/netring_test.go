package netring

import (
	"fmt"
	"net"
	"testing"
	"time"

	"ssrmin/internal/core"
)

func startRing(t *testing.T, n int) *Ring {
	t.Helper()
	r, err := StartLocalRing(n, n+1, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	return r
}

func TestStartLocalRingValidation(t *testing.T) {
	if _, err := StartLocalRing(2, 3, time.Millisecond); err == nil {
		t.Error("n=2 accepted")
	}
	if _, err := StartLocalRing(5, 5, time.Millisecond); err == nil {
		t.Error("K=n accepted")
	}
}

func TestNewNodeValidation(t *testing.T) {
	if _, err := NewNode(Config{ID: 0, N: 5, K: 6}, core.State{}); err == nil {
		t.Error("missing listener accepted")
	}
	l, _ := net.Listen("tcp", "127.0.0.1:0")
	defer l.Close()
	if _, err := NewNode(Config{ID: 0, N: 2, K: 6, Listener: l}, core.State{}); err == nil {
		t.Error("n=2 accepted")
	}
}

// TestCirculationOverTCP is the end-to-end deployment test: the privilege
// must visit every node over real sockets.
func TestCirculationOverTCP(t *testing.T) {
	r := startRing(t, 5)
	visited := map[int]bool{}
	deadline := time.Now().Add(10 * time.Second)
	for len(visited) < 5 && time.Now().Before(deadline) {
		for _, h := range r.Holders() {
			visited[h] = true
		}
		time.Sleep(500 * time.Microsecond)
	}
	if len(visited) != 5 {
		t.Fatalf("privilege visited %d/5 nodes over TCP: %v", len(visited), visited)
	}
	if r.RuleExecutions() == 0 {
		t.Fatal("no rules executed")
	}
}

// TestMutualInclusionOverTCP samples the census: with model-gap-tolerant
// predicates it must stay within [1, 2] even over real sockets with real
// latencies.
func TestMutualInclusionOverTCP(t *testing.T) {
	r := startRing(t, 5)
	time.Sleep(50 * time.Millisecond) // let the first announcements land
	min, max := 1<<30, -1
	for i := 0; i < 2000; i++ {
		c := r.Census()
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
		time.Sleep(200 * time.Microsecond)
	}
	if min < 1 {
		t.Fatalf("census dipped to %d over TCP", min)
	}
	if max > 2 {
		t.Fatalf("census rose to %d over TCP", max)
	}
}

// TestInjectRecoversOverTCP hits a live TCP node with a transient fault
// and verifies the ring returns to the 1–2 regime.
func TestInjectRecoversOverTCP(t *testing.T) {
	r := startRing(t, 5)
	time.Sleep(50 * time.Millisecond)
	r.Nodes[2].Inject(core.State{X: 4, RTS: true, TRA: true})
	r.Nodes[4].Inject(core.State{X: 1, TRA: true})
	time.Sleep(300 * time.Millisecond) // recovery
	min, max := 1<<30, -1
	for i := 0; i < 500; i++ {
		c := r.Census()
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
		time.Sleep(200 * time.Microsecond)
	}
	if min < 1 || max > 2 {
		t.Fatalf("census [%d,%d] after fault injection", min, max)
	}
}

// TestNodeRestartHeals stops one node entirely and starts a replacement on
// the same address with a garbage state: the ring must resume circulating.
func TestNodeRestartHeals(t *testing.T) {
	r := startRing(t, 5)
	time.Sleep(50 * time.Millisecond)

	// Kill node 3 and remember its address.
	old := r.Nodes[3]
	addr := old.Addr()
	old.Stop()
	time.Sleep(50 * time.Millisecond)

	// Restart on the same address with garbage state.
	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	repl, err := NewNode(Config{
		ID: 3, N: 5, K: 6,
		Listener: l,
		PredAddr: r.Nodes[2].Addr(),
		SuccAddr: r.Nodes[4].Addr(),
		Refresh:  10 * time.Millisecond,
	}, core.State{X: 3, RTS: true})
	if err != nil {
		t.Fatal(err)
	}
	repl.Start()
	r.Nodes[3] = repl

	// Circulation must resume and reach every node again.
	time.Sleep(300 * time.Millisecond)
	visited := map[int]bool{}
	deadline := time.Now().Add(10 * time.Second)
	for len(visited) < 5 && time.Now().Before(deadline) {
		for _, h := range r.Holders() {
			visited[h] = true
		}
		time.Sleep(500 * time.Microsecond)
	}
	if len(visited) != 5 {
		t.Fatalf("circulation did not resume after node restart: %v", visited)
	}
}

// within runs f and fails the test if f has not returned after d: a
// leaked node mutex shows up as a failure here, not as a hung test.
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		f()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s still blocked after %v: the node's mutex is held", what, d)
	}
}

// TestDropsNonNeighbourFrame sends node 0 of a 5-ring a frame from node
// 2, which is neither of its neighbours, then a frame from its
// predecessor 4 on the same connection. The first must leave both caches
// untouched; the node must stay responsive, so the second frame lands
// and Snapshot and RuleExecutions return.
func TestDropsNonNeighbourFrame(t *testing.T) {
	refused, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	refusedAddr := refused.Addr().String()
	refused.Close() // the neighbours are down; the announcer only retries
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	init := core.State{X: 3}
	nd, err := NewNode(Config{
		ID: 0, N: 5, K: 6, Listener: l,
		PredAddr: refusedAddr, SuccAddr: refusedAddr, Refresh: time.Hour,
	}, init)
	if err != nil {
		t.Fatal(err)
	}
	nd.Start()
	t.Cleanup(func() {
		// A node whose mutex leaked cannot stop: its reader waits in Lock.
		if !t.Failed() {
			nd.Stop()
		}
	})
	conn, err := net.Dial("tcp", nd.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintln(conn, `{"from":2,"x":1,"rts":true,"tra":true}`)
	fmt.Fprintln(conn, `{"from":4,"x":2}`)

	landed := core.State{X: 2}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var pred, succ core.State
		within(t, time.Second, "Snapshot", func() { _, pred, succ = nd.Snapshot() })
		if succ != init {
			t.Fatalf("successor cache became %+v after a frame from node 2", succ)
		}
		if pred == landed {
			break
		}
		if pred != init {
			t.Fatalf("predecessor cache became %+v, want %+v or %+v", pred, init, landed)
		}
		if time.Now().After(deadline) {
			t.Fatal("the predecessor's frame never reached the cache")
		}
		time.Sleep(time.Millisecond)
	}
	within(t, time.Second, "RuleExecutions", func() { nd.RuleExecutions() })
}

func TestStopIdempotent(t *testing.T) {
	r := startRing(t, 3)
	r.Stop()
	r.Stop()
}
