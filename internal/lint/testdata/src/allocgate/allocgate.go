// Fixture for the allocgate analyzer: two hot functions with deliberate
// heap allocations (a returned pointer and a variable-size make), one
// clean hot function, one whose only escape is a panic message, and an
// unannotated allocator the gate must ignore.
package allocgate

type box struct{ v int }

//allocgate:hot
func hotAlloc(n int) *box {
	b := &box{v: n} // want `hot function hotAlloc allocates on the heap`
	return b
}

//allocgate:hot
func hotSlice(n int) int {
	s := make([]int, n) // want `hot function hotSlice allocates on the heap`
	sum := 0
	for _, v := range s {
		sum += v
	}
	return sum
}

//allocgate:hot
func hotClean(a, b int) int {
	return a + b
}

// hotPanic's message escapes into panic's interface argument; the gate
// skips it, because a panic ends the run.
//
//allocgate:hot
func hotPanic(n int) int {
	if n < 0 {
		panic("allocgate: negative n")
	}
	return n
}

// kernel mimics a bit-sliced step kernel: preallocated plane buffers,
// pure word arithmetic. The clean variant reuses its scratch; the dirty
// one allocates the scratch digit every step.
type kernel struct {
	x, inc []uint64
}

//allocgate:hot
func (k *kernel) stepClean(m uint64) {
	for p := range k.x {
		k.inc[p] = (k.x[p] &^ m) | (k.inc[p] & m)
	}
}

//allocgate:hot
func (k *kernel) stepDirty(m uint64) uint64 {
	scratch := make([]uint64, len(k.x)) // want `hot function stepDirty allocates on the heap`
	var acc uint64
	for p := range k.x {
		scratch[p] = k.x[p] & m
		acc |= scratch[p]
	}
	return acc
}

func coldAlloc(n int) *box {
	return &box{v: n}
}
