package lint

import (
	"strings"
	"testing"
)

// FuzzWaiverParse drives parseWaiver — the single entry point of the
// //lint:ignore suppression syntax — with arbitrary comment text and
// checks the invariants every caller relies on: an accepted waiver
// always carries at least one non-empty, separator-free analyzer name
// and a non-empty trimmed reason, and only text that actually starts
// with the marker is ever accepted.
func FuzzWaiverParse(f *testing.F) {
	seeds := []string{
		"//lint:ignore determinism summed, order-free",
		"//lint:ignore obsguard,locality covers two analyzers",
		"//lint:ignore * blanket waiver with reason",
		"//lint:ignore determinism",
		"//lint:ignore",
		"//lint:ignore  rulecheck \t extra   spacing around the reason ",
		"//lint:ignore allocgate,obsguard the overflow spill boxes the record by design",
		"//lint:ignore ,,, commas but no names",
		"// lint:ignore determinism a space breaks the marker",
		"//lint:ignorexdeterminism glued marker",
		"plain text, not a comment",
		"",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		analyzers, reason, ok := parseWaiver(text)
		if !ok {
			if analyzers != nil || reason != "" {
				t.Fatalf("rejected waiver %q leaked results (%v, %q)", text, analyzers, reason)
			}
			return
		}
		if !strings.HasPrefix(text, "//lint:ignore") {
			t.Fatalf("accepted %q without the //lint:ignore marker", text)
		}
		if len(analyzers) == 0 {
			t.Fatalf("accepted %q with no analyzer names", text)
		}
		for _, a := range analyzers {
			if a == "" {
				t.Fatalf("accepted %q with an empty analyzer name: %v", text, analyzers)
			}
			if strings.ContainsAny(a, ", \t\n\r") {
				t.Fatalf("analyzer name %q from %q contains a separator", a, text)
			}
		}
		if reason == "" || strings.TrimSpace(reason) != reason {
			t.Fatalf("accepted %q with an untrimmed or empty reason %q", text, reason)
		}
	})
}
