package msgnet

import "testing"

// TestRemoveLinkKeepsInFlightFrames: a frame already in transit when its
// link is removed still arrives (it was on the medium), but no new send
// can enter the removed link.
func TestRemoveLinkKeepsInFlightFrames(t *testing.T) {
	a := &echoNode{sendTo: 1, payload: "in-flight"}
	b := &echoNode{}
	net := New([]Handler[any]{a, b}, 1)
	net.AddLink(0, 1, LinkParams{Delay: 1})
	// Put the first frame on the wire, then remove the link at t=0.5,
	// mid-flight.
	net.Run(0.5)
	net.RemoveLink(0, 1)
	if net.SendFrom(0, 1, "after-removal") {
		t.Fatal("send entered a removed link")
	}
	net.Run(10)
	if len(b.received) != 1 || b.received[0] != "in-flight" {
		t.Fatalf("received %v, want just the in-flight frame", b.received)
	}
}

func TestRemoveLinkMissingIsNoop(t *testing.T) {
	net := New([]Handler[any]{&echoNode{}, &echoNode{}}, 1)
	net.RemoveLink(0, 1) // never existed: must not panic
	net.Run(1)
	net.RemoveLink(1, 0) // post-start, still absent
}

// TestRemoveLinkAfterStartUpdatesCompiledTable: a removal after the
// simulation started is visible to the next send.
func TestRemoveLinkAfterStartUpdatesCompiledTable(t *testing.T) {
	a := &chattyNode{to: 1, k: 0}
	b := &chattyNode{}
	net := New([]Handler[any]{a, b}, 1)
	net.AddLink(0, 1, LinkParams{})
	net.Run(1) // compiles the table
	if !net.SendFrom(0, 1, "x") {
		t.Fatal("send on a live link failed")
	}
	net.RemoveLink(0, 1)
	if net.SendFrom(0, 1, "y") {
		t.Fatal("send entered the link after removal")
	}
	net.Run(10)
	if b.got != 1 {
		t.Fatalf("b received %d, want 1", b.got)
	}
}

// TestSendFromRespectsBusyRule: an externally injected send is subject to
// the same one-message-per-direction rule as a handler send.
func TestSendFromRespectsBusyRule(t *testing.T) {
	a := &chattyNode{}
	b := &chattyNode{}
	net := New([]Handler[any]{a, b}, 1)
	net.AddLink(0, 1, LinkParams{Delay: 1})
	net.Run(0)
	if !net.SendFrom(0, 1, "first") {
		t.Fatal("first send refused on an idle link")
	}
	if net.SendFrom(0, 1, "second") {
		t.Fatal("second send entered a busy link")
	}
	st := net.Stats()
	if st.Sent != 1 || st.Suppressed != 1 {
		t.Fatalf("stats = %+v, want 1 sent / 1 suppressed", st)
	}
}

func TestStartTimerFiresExternally(t *testing.T) {
	a := &echoNode{}
	net := New([]Handler[any]{a}, 1)
	net.Run(1)
	net.StartTimer(0, 2, 7)
	net.Run(10)
	if a.timerHits != 1 {
		t.Fatalf("timer hits = %d, want 1", a.timerHits)
	}
}

func TestStartTimerValidation(t *testing.T) {
	net := New([]Handler[any]{&echoNode{}}, 1)
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"negative delay", func() { net.StartTimer(0, -1, 0) }},
		{"unknown node", func() { net.StartTimer(5, 1, 0) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			tc.call()
		}()
	}
}
