// Package digest pins a test's deterministic output with a committed
// SHA-256 digest: one hex hash per file under testdata/digests at the
// module root. A test hashes exactly what it asserts on, then calls
// Check. Running the test with -update rewrites the file instead of
// comparing (`make digests` regenerates every digest that way); a
// changed digest is a changed behaviour and must be explained in
// CHANGES.md. The package is test support: only _test.go files import it.
package digest

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the committed digests under testdata/digests")

// New returns the hash a digest test writes its output into.
func New() hash.Hash { return sha256.New() }

// Sum returns the hex digest of h.
func Sum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

// Check compares the hex digest got with testdata/digests/name, or
// rewrites that file when the test binary runs with -update.
func Check(t testing.TB, name, got string) {
	t.Helper()
	path, err := file(name)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing digest (run with -update): %v", err)
	}
	if w := strings.TrimSpace(string(want)); got != w {
		t.Fatalf("%s: digest %s, committed %s", name, got, w)
	}
}

// file resolves testdata/digests/name against the module root, the
// nearest directory above the test's working directory holding go.mod.
func file(name string) (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return filepath.Join(dir, "testdata", "digests", name), nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("digest: no go.mod above the working directory")
		}
		dir = parent
	}
}
