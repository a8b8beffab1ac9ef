package core

import (
	"fmt"

	"repro/internal/sizeclass"
)

// This file carries the ThreadHeap entry points the per-stripe front end
// (internal/frontend) builds its magazine caches on. The front end lives
// above this package — it holds cached ThreadHeaps and arrays of object
// addresses — so everything it needs from a heap is exported here: the
// size-class routing decision for the magazine index, and an exact-class
// batch fill whose objects all land in one magazine.

// AllocClass maps a request size to the size class that would serve it —
// including the hardening plane's canary reservation, so the front end's
// magazine index always agrees with the class Malloc would pick. ok is
// false for non-positive and large requests.
//
//mesh:lockfree
func (t *ThreadHeap) AllocClass(size int) (int, bool) {
	return t.allocClassFor(size)
}

// MallocClassBatch allocates n objects from exactly size class class,
// appending their addresses to out (which must have capacity; the front
// end passes a view of its fixed magazine array) and returning the
// extended slice. It is the magazine-fill engine: each object comes from
// allocSlot like a scalar Malloc's — same shuffle-vector policy, hardening
// checks, refill drain points and sampled alloc event — but the
// accounting updates are coalesced to one pair of atomics for the whole
// batch. All-or-nothing like MallocBatch: on error every object already
// allocated by this call is freed again.
func (t *ThreadHeap) MallocClassBatch(class, n int, out []uint64) ([]uint64, error) {
	if class < 0 || class >= sizeclass.NumClasses {
		return out, fmt.Errorf("core: invalid size class %d", class)
	}
	start := len(out)
	size := int64(sizeclass.Size(class))
	for i := 0; i < n; i++ {
		addr, err := t.allocSlot(class)
		if err != nil {
			return t.endMallocBatch(out, start, int64(i)*size, uint64(i), err)
		}
		out = append(out, addr)
	}
	return t.endMallocBatch(out, start, int64(n)*size, uint64(n), nil)
}
