package obs_test

// Race coverage for the observer: every counter, histogram and the sink
// must tolerate concurrent emitters. The live engine is the real
// producer — with two or more workers its shard loops emit into one
// Observer at once — so the first test drives a paced engine under -race
// and checks that the emits really came from several goroutines; the
// second hammers the full method surface from bare goroutines.

import (
	"bytes"
	"io"
	goruntime "runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"ssrmin/internal/core"
	"ssrmin/internal/obs"
	"ssrmin/internal/runtime"
)

// goid parses the calling goroutine's id from its stack header
// ("goroutine 42 [running]:").
func goid() uint64 {
	var buf [64]byte
	n := goruntime.Stack(buf[:], false)
	id, _ := strconv.ParseUint(string(bytes.Fields(buf[:n])[1]), 10, 64)
	return id
}

func TestObserverRaceLiveRing(t *testing.T) {
	jsonl := obs.NewJSONL(io.Discard)
	var mu sync.Mutex
	emitters := map[uint64]bool{}
	o := obs.New(obs.Func(func(e obs.Event) {
		jsonl.Emit(e)
		if e.Kind == obs.KindRuleFired {
			id := goid()
			mu.Lock()
			emitters[id] = true
			mu.Unlock()
		}
	}))
	alg := core.New(6, 7)
	e := runtime.NewEngine[core.State](alg, alg.InitialLegitimate(), runtime.Options[core.State]{
		Delay:          200 * time.Microsecond,
		Jitter:         100 * time.Microsecond,
		LossProb:       0.05,
		Refresh:        time.Millisecond,
		Seed:           1,
		CoherentCaches: true,
		Workers:        2,
	})
	e.SetObserver(o, core.HasToken)
	e.Start()
	time.Sleep(150 * time.Millisecond)
	e.Stop()

	if o.C.MsgRecv.Load() == 0 {
		t.Error("live engine emitted no MsgRecv")
	}
	if o.C.RuleFired.Load() == 0 {
		t.Error("live engine emitted no RuleFired")
	}
	if o.C.Handovers.Load() == 0 {
		t.Error("live engine emitted no Handover")
	}
	if len(emitters) < 2 {
		t.Errorf("RuleFired emitted from %d goroutine(s), want ≥ 2 worker loops", len(emitters))
	}
}

func TestObserverRaceAllMethods(t *testing.T) {
	o := obs.New(obs.NewJSONL(io.Discard))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				t := float64(i)
				o.Step(t, 1)
				o.RuleFired(t, g, 1+i%5)
				o.TokenMoved(t, g, (g+1)%8)
				o.Handover(t, g, i%2 == 0)
				o.C.MsgSent.Add(1)
				o.C.MsgRecv.Add(1)
				o.C.MsgDropped.Add(1)
				o.LiveSink().Emit(obs.Event{T: t, Kind: obs.KindMsgSent, Node: g, Peer: (g + 1) % 8})
				o.ConvergedAt(t, i)
			}
		}(g)
	}
	// A concurrent reader exercises the snapshot paths under -race too.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			o.WriteText(io.Discard)
		}
	}()
	wg.Wait()

	if got := o.C.Steps.Load(); got != 8*500 {
		t.Errorf("Steps = %d, want %d", got, 8*500)
	}
	if got := o.C.MsgSent.Load(); got != 8*500 {
		t.Errorf("MsgSent = %d, want %d", got, 8*500)
	}
}
