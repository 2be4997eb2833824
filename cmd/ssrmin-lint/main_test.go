package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRejectsPatternWithoutPackage: a pattern that names no Go package —
// a missing directory, a typo of a real one, a directory without Go
// sources, a file — is rejected with one stderr line and exit 2 instead
// of linting clean.
func TestRejectsPatternWithoutPackage(t *testing.T) {
	for _, pat := range []string{"./nonexistent", "ssrmin/internal/msgnett", "ssrmin/docs", "main.go"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{pat}, &stdout, &stderr); code != 2 {
			t.Fatalf("%s: exit %d, want 2", pat, code)
		}
		msg := stderr.String()
		if strings.Count(msg, "\n") != 1 || !strings.Contains(msg, "matches no Go package") {
			t.Fatalf("%s: stderr %q, want one line naming the pattern", pat, msg)
		}
		if stdout.Len() != 0 {
			t.Fatalf("%s: wrote %q to stdout", pat, stdout.String())
		}
	}
}

// TestLintsNamedPackage: a real package under an import path lints clean
// with exit 0 and no output.
func TestLintsNamedPackage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-analyzers", "rulecheck", "ssrmin/internal/cst"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	if stdout.Len() != 0 || stderr.Len() != 0 {
		t.Fatalf("clean run wrote stdout %q, stderr %q", stdout.String(), stderr.String())
	}
}

func TestRejectsUnknownAnalyzer(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-analyzers", "nosuch", "main.go"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if msg := stderr.String(); strings.Count(msg, "\n") != 1 || !strings.Contains(msg, `unknown analyzer "nosuch"`) {
		t.Fatalf("stderr %q, want one line naming the analyzer", msg)
	}
}

// TestListNamesSuite: -list prints the five analyzers in registry order.
func TestListNamesSuite(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	var names []string
	for _, line := range strings.Split(stdout.String(), "\n") {
		if line != "" && line[0] != ' ' {
			names = append(names, strings.Fields(line)[0])
		}
	}
	if got, want := strings.Join(names, " "), "locality determinism obsguard rulecheck allocgate"; got != want {
		t.Fatalf("-list names %q, want %q", got, want)
	}
}
