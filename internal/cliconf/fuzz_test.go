package cliconf

import (
	"flag"
	"io"
	"strconv"
	"strings"
	"testing"
)

// FuzzParseDaemon pins the registry-lookup contract: exactly one of
// (daemon, error) is non-nil, registered names always build, and the
// error for an unknown name quotes it and lists the alternatives.
// p is clamped into [0,1] — out-of-range inclusion probabilities are a
// documented constructor panic, not a parse failure.
func FuzzParseDaemon(f *testing.F) {
	for _, name := range DaemonNames() {
		f.Add(name, int64(1), 0.5)
	}
	f.Add("", int64(0), 0.0)
	f.Add("Central", int64(-1), 1.0)
	f.Add("no such scheduler", int64(42), 0.25)
	f.Fuzz(func(t *testing.T, name string, seed int64, p float64) {
		if !(p >= 0 && p <= 1) {
			p = 0.5
		}
		d, err := ParseDaemon(name, seed, p)
		if (d == nil) == (err == nil) {
			t.Fatalf("ParseDaemon(%q) = %v, %v: want exactly one of daemon and error", name, d, err)
		}
		registered := false
		for _, n := range DaemonNames() {
			if n == name {
				registered = true
			}
		}
		if registered && err != nil {
			t.Fatalf("ParseDaemon(%q) rejected a registered name: %v", name, err)
		}
		if !registered {
			if err == nil {
				t.Fatalf("ParseDaemon(%q) accepted an unregistered name", name)
			}
			if !strings.Contains(err.Error(), strconv.Quote(name)) {
				t.Fatalf("error %q does not quote the offending name %q", err, name)
			}
			for _, n := range DaemonNames() {
				if !strings.Contains(err.Error(), n) {
					t.Fatalf("error %q does not list registered daemon %q", err, n)
				}
			}
		}
	})
}

// FuzzConfigFlags drives the full flag-binding surface with arbitrary
// textual values: parsing either fails cleanly or yields a Config whose
// ResolveK and NewDaemon uphold their contracts. Nothing may panic.
func FuzzConfigFlags(f *testing.F) {
	f.Add("5", "7", "central", "0.5", "42")
	f.Add("3", "0", "distributed", "1", "-1")
	f.Add("-3", "x", "sync", "nope", "9999999999")
	f.Add("", "", "", "", "")
	f.Fuzz(func(t *testing.T, n, k, daemonName, p, seed string) {
		fs := flag.NewFlagSet("fuzz", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		var c Config
		c.BindRing(fs, 5)
		c.BindSchedule(fs)
		c.BindSteps(fs, 100)
		c.BindRandom(fs, 1)
		err := fs.Parse([]string{
			"-n", n, "-k", k, "-daemon", daemonName, "-p", p, "-seed", seed,
		})
		if err != nil {
			return // rejected at the flag layer: fine
		}
		kBefore := c.K
		// n+1 overflows at the largest int, so the default K is then no
		// larger than n and the shape is invalid.
		valid := c.N >= 3 && (kBefore > c.N || kBefore == 0 && c.N+1 > c.N)
		if err := c.ResolveK(); (err == nil) != valid {
			t.Fatalf("ResolveK(n=%d, k=%d) = %v, want valid=%v", c.N, kBefore, err, valid)
		}
		if !valid {
			return
		}
		if kBefore == 0 && c.K != c.N+1 {
			t.Fatalf("ResolveK defaulted K to %d, want n+1 = %d", c.K, c.N+1)
		}
		if kBefore != 0 && c.K != kBefore {
			t.Fatalf("ResolveK overwrote explicit K=%d with %d", kBefore, c.K)
		}
		if !(c.P >= 0 && c.P <= 1) {
			return // out-of-range p is a documented constructor panic
		}
		d, err := c.NewDaemon()
		if (d == nil) == (err == nil) {
			t.Fatalf("NewDaemon() = %v, %v: want exactly one of daemon and error", d, err)
		}
	})
}
