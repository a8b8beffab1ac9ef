package core

import (
	"errors"
	"fmt"

	"repro/internal/sizeclass"
)

// This file implements the batched hot-path operations. They run the same
// per-object steps as the scalar path — allocSlot for each allocation,
// freeLocal then tryQueueRemote for each free, with the same hardening
// checks, fault sites and trace events — and amortize only what lies
// around them: one front-end heap hand-off, one pair of atomic accounting
// updates for the local allocations or frees of a whole batch, and one
// shard-lock acquisition per size class for the frees that reach the
// global heap.

// MallocBatch allocates one object per entry of sizes, appending the
// resulting addresses to out (which may be nil) and returning the extended
// slice. The batch is atomic: if any allocation fails, every object
// already allocated by this call is freed again and the error is returned
// with no addresses delivered.
func (t *ThreadHeap) MallocBatch(sizes []int, out []uint64) ([]uint64, error) {
	if out == nil {
		out = make([]uint64, 0, len(sizes))
	}
	start := len(out)
	var bytes int64
	var n uint64
	for _, size := range sizes {
		var addr uint64
		var err error
		class, ok := t.allocClassFor(size)
		switch {
		case ok:
			if addr, err = t.allocSlot(class); err == nil {
				bytes += int64(sizeclass.Size(class))
				n++
			}
		case size <= 0:
			err = fmt.Errorf("core: invalid allocation size %d", size)
		default:
			// Large objects account for themselves inside AllocLarge.
			addr, err = t.global.AllocLarge(size)
		}
		if err != nil {
			return t.endMallocBatch(out, start, bytes, n, err)
		}
		out = append(out, addr)
	}
	return t.endMallocBatch(out, start, bytes, n, nil)
}

// endMallocBatch publishes a malloc batch's coalesced accounting — n
// small objects totalling bytes — and, when err is non-nil, frees every
// object the batch appended past start, so batches are all-or-nothing.
func (t *ThreadHeap) endMallocBatch(out []uint64, start int, bytes int64, n uint64, err error) ([]uint64, error) {
	t.localAllocs.Add(n)
	t.global.noteAllocN(bytes, n)
	if err != nil {
		_ = t.FreeBatch(out[start:])
		return out[:start], err
	}
	return out, nil
}

// FreeBatch releases every object in addrs. Each address takes the scalar
// Free's route — the shuffle vector (or quarantine) when local, the
// owner's lock-free queue when its span is attached to another live heap
// — with the local frees accounted once for the whole batch. The
// remainder goes to the global heap in a single call, which partitions by
// owning size class and takes each shard lock once for the whole batch.
// Errors on individual addresses are joined; valid addresses in the same
// batch are still freed.
func (t *ThreadHeap) FreeBatch(addrs []uint64) error {
	var errs []error
	var bytes int64
	var n uint64
	rest := t.scratch[:0]
	owners := t.ownerScratch[:0]
	for _, addr := range addrs {
		size, how, owner, err := t.freeLocal(addr)
		switch {
		case err != nil:
			errs = append(errs, err)
		case how == freedLocal:
			bytes += int64(size)
			n++
		case how == freeParked:
			// Accounted when the quarantine settles it.
		case t.tryQueueRemote(addr, owner):
		default:
			rest = append(rest, addr)
			owners = append(owners, owner)
		}
	}
	if n > 0 {
		t.localFrees.Add(n)
		t.global.noteLocalFreeN(bytes, n)
	}
	if len(rest) > 0 {
		if err := t.global.freeBatchResolved(rest, owners); err != nil {
			errs = append(errs, err)
		}
	}
	t.scratch = rest[:0]
	clear(owners) // don't pin destroyed MiniHeaps between batches
	t.ownerScratch = owners[:0]
	return errors.Join(errs...)
}
