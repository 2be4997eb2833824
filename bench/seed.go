package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
)

// derive maps the run seed and a path of indices to an independent input
// seed by chained splitmix64 finalization, so neighboring indices (and
// neighboring run seeds) give unrelated inputs.
func derive(seed int64, path ...int64) int64 {
	z := uint64(seed)
	for _, p := range path {
		z = splitmix(z ^ splitmix(uint64(p)+0x9E3779B97F4A7C15))
	}
	return int64(splitmix(z) >> 1)
}

func splitmix(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// digest fingerprints generated inputs through their JSON encoding.
func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		// Inputs are plain data built by this package; failing to encode
		// them is a bug.
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}
