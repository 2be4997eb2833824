package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRejectsOversizedSpace: a space above -max-configs is a bad flag,
// rejected with one stderr line and exit 2 before any checker is built.
func TestRejectsOversizedSpace(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "7"},
		{"-n", "3", "-max-configs", "1000"},
		{"-alg", "sstoken", "-n", "12", "-k", "40"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Fatalf("%v: exit %d, want 2", args, code)
		}
		msg := stderr.String()
		if strings.Count(msg, "\n") != 1 || !strings.Contains(msg, "exceeds -max-configs") {
			t.Fatalf("%v: stderr %q, want one line naming -max-configs", args, msg)
		}
		if stdout.Len() != 0 {
			t.Fatalf("%v: wrote %q to stdout", args, stdout.String())
		}
	}
}

// TestHeaderReportsOrbits: both algorithms pass at n=3 and the header
// names the orbit size and the representative count next to |Γ|.
func TestHeaderReportsOrbits(t *testing.T) {
	for alg, want := range map[string]string{
		"ssrmin":  "|Γ| = 4096 configurations (orbit 4, 1024 representatives)",
		"sstoken": "|Γ| = 64 configurations (orbit 4, 16 representatives)",
	} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-alg", alg, "-n", "3", "-workers", "2"}, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d, stderr %q", alg, code, stderr.String())
		}
		if !strings.Contains(stdout.String(), want) {
			t.Fatalf("%s: header missing %q:\n%s", alg, want, stdout.String())
		}
	}
}

func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{{"-n", "2"}, {"-n", "4", "-k", "4"}, {"-alg", "paxos"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Fatalf("%v: exit %d, want 2", args, code)
		}
	}
}
