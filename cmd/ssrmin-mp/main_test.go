package main

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const validScenario = `{"name":"ok","n":3,"horizon":1,"link":{"delay":0.01},"seed":1}`

func writeScenario(t *testing.T, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "s.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestScenarioFileRejectsInvalid: an unreadable, malformed or invalid
// file is a usage error — one stderr line, exit 2 and nothing on stdout,
// even when the invalid scenario follows a valid one in the same array.
func TestScenarioFileRejectsInvalid(t *testing.T) {
	cases := map[string]string{
		"missing":          filepath.Join(t.TempDir(), "absent.json"),
		"directory":        t.TempDir(),
		"malformed":        writeScenario(t, `{"name":"x","n":`),
		"unknown field":    writeScenario(t, `{"name":"x","n":5,"horizn":3}`),
		"empty array":      writeScenario(t, `[]`),
		"small n":          writeScenario(t, `{"name":"x","n":2,"horizon":1}`),
		"huge n":           writeScenario(t, `{"name":"x","n":100000000,"horizon":1}`),
		"second invalid":   writeScenario(t, "["+validScenario+`,{"name":"bad","n":5,"horizon":0}]`),
		"negative delay":   writeScenario(t, `{"name":"x","n":5,"horizon":1,"link":{"delay":-1}}`),
		"negative jitter":  writeScenario(t, `{"name":"x","n":5,"horizon":1,"link":{"delay":0.01,"jitter":-1}}`),
		"negative refresh": writeScenario(t, `{"name":"x","n":5,"horizon":1,"link":{"delay":0.01},"refresh":-1}`),
	}
	for name, path := range cases {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := runScenarioFile(path, &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2 (stderr %q)", code, stderr.String())
			}
			if msg := stderr.String(); strings.Count(msg, "\n") != 1 {
				t.Errorf("stderr %q, want one line", msg)
			}
			if stdout.Len() != 0 {
				t.Errorf("wrote %q to stdout", stdout.String())
			}
		})
	}
}

// TestScenarioFileRuns: a valid array runs every scenario and exits 0.
func TestScenarioFileRuns(t *testing.T) {
	path := writeScenario(t, "["+validScenario+","+strings.Replace(validScenario, `"ok"`, `"ok2"`, 1)+"]")
	var stdout, stderr bytes.Buffer
	if code := runScenarioFile(path, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	if out := stdout.String(); !strings.Contains(out, `"ok"`) || !strings.Contains(out, `"ok2"`) {
		t.Fatalf("stdout lacks a result per scenario:\n%s", out)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("write failed") }

// TestScenarioFileRunFailure: a failure after validation — here, writing
// the result — is a run-time failure and exits 1.
func TestScenarioFileRunFailure(t *testing.T) {
	var stderr bytes.Buffer
	if code := runScenarioFile(writeScenario(t, validScenario), failWriter{}, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, stderr.String())
	}
}

// TestCheckFlags: the flag values that made the msgnet and CST layers
// panic, and non-finite ones, are usage errors; the defaults pass.
func TestCheckFlags(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	// horizon, delay, jitter, loss, refresh, hold
	ok := [6]float64{10, 0.01, 0.002, 0, 0.05, 0}
	if err := checkFlags(ok[0], ok[1], ok[2], ok[3], ok[4], ok[5]); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	for _, tc := range []struct {
		name  string
		field int
		value float64
	}{
		{"NaN horizon", 0, nan},
		{"infinite horizon", 0, inf},
		{"zero horizon", 0, 0},
		{"negative delay", 1, -1},
		{"NaN delay", 1, nan},
		{"negative jitter", 2, -0.5},
		{"infinite jitter", 2, inf},
		{"loss above 1", 3, 2},
		{"negative loss", 3, -0.1},
		{"NaN loss", 3, nan},
		{"negative refresh", 4, -1},
		{"negative hold", 5, -1},
		{"NaN hold", 5, nan},
	} {
		v := ok
		v[tc.field] = tc.value
		if err := checkFlags(v[0], v[1], v[2], v[3], v[4], v[5]); err == nil {
			t.Errorf("%s: accepted %v", tc.name, v)
		}
	}
}
