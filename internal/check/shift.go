package check

// Digit-shift symmetry. For an algorithm declaring statemodel.DigitShift
// with orbit K, adding b = q/K (mod q) to every digit of a configuration
// ID maps steps to steps and Λ to Λ (Compile verifies the former against
// the tables, LegitSet the latter on Λ's orbits). Position n−1 is the
// most significant digit, so each orbit has exactly one member whose top
// digit is below b, which is also its smallest ID: the representatives
// are exactly the prefix [0, q^n/K) of the ID space. The engine explores
// that prefix and canonicalises every successor that leaves it; a
// smallest-ID tie-break over the prefix picks the same configuration as
// one over Γ.

// shift is an engine's digit-shift symmetry; orbit 1 is the identity.
type shift struct {
	k    int // orbit size
	b    int // state-index offset of one shift: q/k
	q, n int
	span uint64 // |Γ|/k: the representatives are [0, span)
	top  uint64 // q^(n-1), the place value of position n−1
}

func newShift(q, n, k int, pow []uint64) shift {
	return shift{k: k, b: q / k, q: q, n: n, span: pow[n] / uint64(k), top: pow[n-1]}
}

// canon returns the representative of id's orbit. Only a move at
// position n−1 leaves the prefix, so most successors take the fast path;
// the others have (top digit / b)·b subtracted from every digit.
func (s *shift) canon(id uint64) uint64 {
	if id < s.span {
		return id
	}
	return s.rotate(id, s.q-int(id/s.top)/s.b*s.b)
}

// rotate adds d (mod q) to every digit of id; d = c·b applies the shift c
// times. d lies in [0, q), so each digit wraps by one subtraction.
func (s *shift) rotate(id uint64, d int) uint64 {
	q := uint64(s.q)
	var out, place uint64 = 0, 1
	for i := 0; i < s.n; i++ {
		x := id%q + uint64(d)
		if x >= q {
			x -= q
		}
		out += x * place
		id /= q
		place *= q
	}
	return out
}
