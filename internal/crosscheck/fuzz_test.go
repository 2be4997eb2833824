package crosscheck

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoadRepros feeds arbitrary bytes to LoadRepros as a fixture file:
// loading either fails with an error or succeeds — it never panics, and it
// never accepts a scenario still carrying the retired live-backend keys
// liveLegacy and liveScale. The committed corpus holds such a fixture.
func FuzzLoadRepros(f *testing.F) {
	fixture, err := os.ReadFile(filepath.Join("..", "..", "testdata", "repros", "dup-echo-seed1.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "fuzz.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		repros, err := LoadRepros(dir)
		if err != nil {
			return
		}
		if len(repros) != 1 {
			t.Fatalf("loaded %d repros from one file", len(repros))
		}
		var raw struct {
			Scenario map[string]json.RawMessage `json:"scenario"`
		}
		if json.Unmarshal(data, &raw) != nil {
			return
		}
		for _, key := range []string{"liveLegacy", "liveScale"} {
			if _, ok := raw.Scenario[key]; ok {
				t.Fatalf("fixture with retired key %q loaded", key)
			}
		}
	})
}
