package cliconf

import (
	"flag"
	"math"
	"reflect"
	"testing"
)

func TestParseDaemonKnownNames(t *testing.T) {
	for _, name := range DaemonNames() {
		d, err := ParseDaemon(name, 1, 0.5)
		if err != nil {
			t.Fatalf("ParseDaemon(%q): %v", name, err)
		}
		if d == nil {
			t.Fatalf("ParseDaemon(%q) returned nil daemon", name)
		}
		if d.Name() == "" {
			t.Errorf("daemon %q has empty Name()", name)
		}
	}
}

func TestParseDaemonRejectsBadP(t *testing.T) {
	for _, p := range []float64{-0.1, 2, math.NaN(), math.Inf(1)} {
		if d, err := ParseDaemon("distributed", 1, p); err == nil || d != nil {
			t.Errorf("ParseDaemon(distributed, p=%v) = %v, %v; want an error", p, d, err)
		}
	}
}

func TestParseDaemonUnknown(t *testing.T) {
	if _, err := ParseDaemon("nope", 1, 0.5); err == nil {
		t.Fatal("want error for unknown daemon name")
	}
}

func TestDaemonNames(t *testing.T) {
	want := []string{"central", "sync", "distributed", "quiet", "starve"}
	if got := DaemonNames(); !reflect.DeepEqual(got, want) {
		t.Errorf("DaemonNames() = %v, want %v", got, want)
	}
}

func TestBindAndResolve(t *testing.T) {
	var c Config
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	c.BindRing(fs, 5)
	c.BindSteps(fs, 15)
	c.BindSchedule(fs)
	c.BindRandom(fs, 1)
	if err := fs.Parse([]string{"-n", "7", "-daemon", "distributed", "-p", "0.25", "-seed", "9", "-random"}); err != nil {
		t.Fatal(err)
	}
	if c.N != 7 || c.Steps != 15 || c.Daemon != "distributed" || c.P != 0.25 || c.Seed != 9 || !c.Random {
		t.Errorf("parsed config = %+v", c)
	}
	if err := c.ResolveK(); err != nil || c.K != 8 {
		t.Errorf("ResolveK() = %v, K = %d, want n+1 = 8", err, c.K)
	}
	d, err := c.NewDaemon()
	if err != nil {
		t.Fatal(err)
	}
	if d == nil {
		t.Fatal("NewDaemon returned nil")
	}
}

func TestResolveKExplicit(t *testing.T) {
	c := Config{N: 5, K: 9}
	if err := c.ResolveK(); err != nil || c.K != 9 {
		t.Errorf("ResolveK() = %v, K = %d, want explicit 9", err, c.K)
	}
}

// TestResolveKValidates pins the shape every tool accepts: n ≥ 3 and
// K > n, with K = 0 meaning the n+1 default, and no negative -workers.
// Invalid shapes are one-line errors naming the offending flag, never a
// panic deeper down.
func TestResolveKValidates(t *testing.T) {
	cases := []struct {
		n, k    int
		workers int
		wantK   int
		wantErr string
	}{
		{n: 3, k: 0, wantK: 4},
		{n: 5, k: 6, wantK: 6},
		{n: 5, k: 100, wantK: 100},
		{n: 2, k: 0, wantErr: "-n 2: ring size must be at least 3"},
		{n: 0, k: 0, wantErr: "-n 0: ring size must be at least 3"},
		{n: -4, k: 9, wantErr: "-n -4: ring size must be at least 3"},
		{n: 5, k: 5, wantErr: "-k 5: counter space must exceed n = 5"},
		{n: 4, k: 2, wantErr: "-k 2: counter space must exceed n = 4"},
		{n: 4, k: -1, wantErr: "-k -1: counter space must exceed n = 4"},
		{n: 4, k: 0, workers: 2, wantK: 5},
		{n: 4, k: 0, workers: -3, wantErr: "-workers -3: worker count must not be negative"},
	}
	for _, tc := range cases {
		c := Config{N: tc.n, K: tc.k, Workers: tc.workers}
		err := c.ResolveK()
		if tc.wantErr != "" {
			if err == nil || err.Error() != tc.wantErr {
				t.Errorf("n=%d k=%d: err = %v, want %q", tc.n, tc.k, err, tc.wantErr)
			}
			continue
		}
		if err != nil || c.K != tc.wantK {
			t.Errorf("n=%d k=%d: err = %v, K = %d, want K = %d", tc.n, tc.k, err, c.K, tc.wantK)
		}
	}
}
