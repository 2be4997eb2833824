package main

import (
	"math"
	"testing"

	"ssrmin/internal/cliconf"
)

// TestCheckFlags: a -seconds/-fps pair that does not give a positive
// int frame count is a usage error, and so is a negative -workers; the
// defaults give 100 frames.
func TestCheckFlags(t *testing.T) {
	ring := func() *cliconf.Config { return &cliconf.Config{N: 8} }
	if frames, err := checkFlags(ring(), 5, 20); err != nil || frames != 100 {
		t.Fatalf("defaults: %d frames, %v", frames, err)
	}
	for _, tc := range []struct {
		name    string
		seconds float64
		fps     int
	}{
		{"NaN seconds", math.NaN(), 20},
		{"infinite seconds", math.Inf(1), 20},
		{"negative infinite seconds", math.Inf(-1), 20},
		{"zero seconds", 0, 20},
		{"negative seconds", -1, 20},
		{"under one frame", 0.01, 20},
		{"zero fps", 5, 0},
		{"negative fps", 5, -5},
		{"overflowing product", 1e18, 100},
	} {
		if frames, err := checkFlags(ring(), tc.seconds, tc.fps); err == nil {
			t.Errorf("%s: accepted with %d frames", tc.name, frames)
		}
	}
	if _, err := checkFlags(&cliconf.Config{N: 8, Workers: -3}, 5, 20); err == nil {
		t.Error("negative -workers accepted")
	}
}
