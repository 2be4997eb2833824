package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunRejectsNegativeWorkers: a negative -workers (parallel trials)
// or -live-workers (engine worker loops) is a one-line usage error with
// exit 2, before any trial runs; 0 keeps meaning GOMAXPROCS.
func TestRunRejectsNegativeWorkers(t *testing.T) {
	for _, flag := range []string{"-workers", "-live-workers"} {
		dir := t.TempDir()
		out, err := os.Create(filepath.Join(dir, "out"))
		if err != nil {
			t.Fatal(err)
		}
		errw, err := os.Create(filepath.Join(dir, "err"))
		if err != nil {
			t.Fatal(err)
		}
		code := run([]string{"-n", "5", "-seeds", "1", "-horizon", "1", flag, "-4"}, out, errw)
		out.Close()
		errw.Close()
		stderr, _ := os.ReadFile(errw.Name())
		stdout, _ := os.ReadFile(out.Name())
		if code != 2 {
			t.Errorf("%s -4: exit %d, want 2", flag, code)
		}
		if lines := strings.Split(strings.TrimSpace(string(stderr)), "\n"); len(lines) != 1 || !strings.Contains(lines[0], "-4") {
			t.Errorf("%s -4: stderr %q, want one line naming -4", flag, stderr)
		}
		if len(stdout) != 0 {
			t.Errorf("%s -4: ran trials: %q", flag, stdout)
		}
	}
}
