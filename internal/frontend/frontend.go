// Package frontend implements the allocator's heap store: a striped slot
// array of cached core.ThreadHeaps with per-size-class magazine caches on
// top and a lock-free overflow stack behind it, so Allocator-level calls
// get a thread-local heap (§4.3) without a shared hand-off on every call.
//
// The layers, hot to cold:
//
//	goroutine ──hash──▶ stripe slot ──▶ magazine ──▶ cached ThreadHeap ──▶ overflow stack ──▶ global shards
//	            (stack   (one swap on   (array pop/   (shuffle-vector     (Treiber stack,     (per-class
//	             page)    a private      push, no      batch fill/flush)   cold path)          locks)
//	                      cache line)    atomics)
//
// A stripe is a padded single-heap slot keyed by a cheap goroutine hint —
// a Fibonacci hash of the caller's stack page, so consecutive calls from
// one goroutine land on the same stripe without runtime hooks. Acquire is
// one atomic swap on that stripe's private cache line; release is one CAS
// back. Distinct goroutines on distinct stripes never touch a common
// write location. A stripe miss (empty slot) pops a heap off the overflow
// stack, or creates one when the stack is empty; a release whose stripe
// is taken probes the others, and when every stripe is full the front
// retires: its magazines flush and its heap is pushed onto the overflow
// stack. Every heap has exactly one owner at a time, so the single-owner
// meshing invariant (§4.5.3) is untouched.
//
// Magazines (off by default; frontend.magazine_objects) sit above the
// cached heap: per size class, a fixed-capacity array of object
// addresses. A magazine hit — the common case once warm — is an array
// pop or push with zero shared atomic operations; misses fill half the
// capacity through MallocClassBatch and overflows flush half through
// FreeBatch, so shared accounting atomics and shard-lock traffic are
// paid once per half-capacity batch instead of once per object.
// Addresses are stable across meshing (the paper's core property), and
// magazine-held objects are live in their spans' bitmaps, so meshing
// relocates their bytes like any other live object while the cached
// addresses stay valid.
//
// Semantics traded for the magazine hit path, all scoped to
// magazine-eligible frees (small objects that validate against the page
// map) and documented on the controls:
//
//   - Frees trust the caller like the paper's local fast path (§4.1): a
//     double free of a magazine-cached object is not detected until the
//     flush reaches the locked path, and may alias in between.
//   - Hardening checks run at the fill and flush boundaries (the batch
//     calls run the full canary/poison protocol per object), preserving
//     checks == violations + passes; the poison-on-free window narrows to
//     flush time, and quarantine parking happens at flush rather than at
//     the user's free call.
//   - Heap-level accounting counts magazine population as allocated
//     (fill) until flushed, so allocs == frees + live holds exactly at
//     quiescence (after Flush/Close) and stats.frontend.cached_objects
//     reports the transient skew.
package frontend

import (
	"errors"
	"fmt"
	"sync/atomic"
	"unsafe"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/sizeclass"
	"repro/internal/trace"
)

const (
	stripeShift = 4
	// NumStripes is the size of the stripe array. Past 16-way concurrency
	// the overflow stack absorbs the surplus, and more stripes only pad
	// more cache lines.
	NumStripes = 1 << stripeShift
	// MaxMagazineObjects caps frontend.magazine_objects; a magazine holds
	// addresses, so the cap bounds per-front memory at
	// NumClasses * 8 B * cap ≈ 768 KiB.
	MaxMagazineObjects = 4096
)

// Cache is the heap store: NumStripes padded slots of parked Fronts, the
// overflow stack of heaps behind them, the magazine setting and the
// counters.
type Cache struct {
	g      *core.GlobalHeap
	pages  *arena.Arena
	tr     *trace.Source
	nextID *atomic.Uint64 // heap IDs, shared with explicit Threads

	magObjects atomic.Int64

	// fills/flushes count magazine batch refills and drains — slow-path
	// events by construction, so plain shared counters cost nothing on
	// the hit path.
	fills   atomic.Uint64
	flushes atomic.Uint64

	// overflow is a Treiber stack of heaps that found every stripe full.
	// Each push allocates a fresh node; Go's garbage collector makes the
	// stack ABA-safe, because a popped node cannot be recycled at the same
	// address while another goroutine still holds a pointer to it. Nodes
	// are deliberately NOT recycled through a sync.Pool: reusing node
	// memory would reintroduce the ABA hazard, and parking whole
	// ThreadHeaps in a sync.Pool would let the collector drop them,
	// stranding their attached spans (attached MiniHeaps are never meshing
	// candidates, so those spans' RSS would never be reclaimed). The
	// atomic hand-offs also provide the happens-before edge that transfers
	// heap ownership between goroutines.
	overflow atomic.Pointer[heapNode]
	idle     atomic.Int64  // heaps parked on the overflow stack
	created  atomic.Uint64 // heaps ever created
	returns  atomic.Uint64 // heaps pushed onto the overflow stack

	stripes [NumStripes]stripe
}

type heapNode struct {
	th   *core.ThreadHeap
	next *heapNode
}

// stripe is one padded slot. All per-operation atomics of the fast path
// (the slot swap/CAS and the hit/miss counters) land on this
// stripe-private line, so goroutines on distinct stripes share no write
// location; the padding keeps neighbouring stripes from false-sharing it
// back.
type stripe struct {
	slot   atomic.Pointer[Front]
	hits   atomic.Uint64
	misses atomic.Uint64
	_      [104]byte
}

// Front is one cached heap plus its magazines. A Front is single-owner
// between Acquire and Release — the stripe swap/CAS provides the
// ownership hand-off edge — so every field but parked is plain.
type Front struct {
	c      *Cache
	th     *core.ThreadHeap
	magCap int
	cached int // total objects across all magazines
	// parked is cached as of the front's last park, read by CachedObjects
	// while the front sits on a stripe. It travels with the front, so a
	// front acquired on one stripe and parked on another counts once.
	parked atomic.Int64
	mags   [sizeclass.NumClasses]magazine
}

// magazine is a fixed array of cached object addresses for one size
// class. objs is allocated lazily (first fill or push) at magCap and
// never grows; n is the population.
type magazine struct {
	n    int
	objs []uint64
}

// NewCache builds the heap store over g. magObjects seeds the magazine
// capacity (frontend.magazine_objects); nextID numbers the heaps it
// creates.
func NewCache(g *core.GlobalHeap, magObjects int, nextID *atomic.Uint64) *Cache {
	c := &Cache{
		g:      g,
		pages:  g.Arena(),
		tr:     g.Tracer().NewSource(trace.SrcFrontend),
		nextID: nextID,
	}
	c.magObjects.Store(int64(clampMagObjects(magObjects)))
	return c
}

func clampMagObjects(n int) int {
	if n < 0 {
		return 0
	}
	if n > MaxMagazineObjects {
		return MaxMagazineObjects
	}
	return n
}

// stripeOf returns the calling goroutine's stripe hint: a Fibonacci hash
// of the caller's stack page. Goroutine stacks are page-grained and
// long-lived relative to an allocator call, so consecutive calls from one
// goroutine map to one stripe, while distinct goroutines spread — without
// runtime.procPin or goroutine IDs, neither of which Go exposes. The
// probe variable never escapes (only its uintptr is taken), so the hint
// itself allocates nothing. Collisions are correctness-neutral: two
// goroutines on one stripe just alternate between the cached front and
// the miss path.
//
//mesh:lockfree
func stripeOf() int {
	var probe byte
	p := uint64(uintptr(unsafe.Pointer(&probe)))
	return int((p >> 10) * 0x9E3779B97F4A7C15 >> (64 - stripeShift))
}

// Acquire hands the caller its stripe's cached front. The hit is one swap
// on the stripe-private line; a miss wraps a heap from the overflow stack
// (or a new one) in a fresh front.
//
//mesh:lockfree
func (c *Cache) Acquire() *Front {
	s := &c.stripes[stripeOf()]
	if f := s.slot.Swap(nil); f != nil {
		s.hits.Add(1)
		return f
	}
	s.misses.Add(1)
	return c.newFront() //mesh:slowpath — stripe empty: take a heap off the overflow stack or create one
}

// newFront wraps an unparked heap in a fresh Front sized by the current
// magazine setting.
func (c *Cache) newFront() *Front {
	return &Front{c: c, th: c.popHeap(), magCap: int(c.magObjects.Load())}
}

// popHeap returns a heap off the overflow stack, creating one when the
// stack is empty. Unparking drains the heap's remote-free queue:
// message-passed frees that accumulated while it sat idle go back onto
// its shuffle vectors before the caller's first allocation (the unpark
// drain point of the remote-free protocol).
//
//mesh:lockfree
func (c *Cache) popHeap() *core.ThreadHeap {
	for {
		n := c.overflow.Load()
		if n == nil {
			c.created.Add(1)
			return core.NewThreadHeap(c.g, c.nextID.Add(1)) //mesh:slowpath — empty stack: creating a heap allocates by design
		}
		if c.overflow.CompareAndSwap(n, n.next) {
			c.idle.Add(-1)
			n.th.DrainRemoteFrees() //mesh:slowpath — the unpark drain point; settles queued frees before handing the heap out
			return n.th
		}
	}
}

// pushHeap parks th on the overflow stack, publishing every write the
// owner made. Parking drains the remote-free queue first (the park drain
// point): frees posted while the heap was owned are settled while we
// still own it. Pushes that land between the drain and the park wait for
// the next pop's drain — the queue stays open while parked, because the
// heap's attached spans remain attached (and thus never meshed).
//
//mesh:lockfree
func (c *Cache) pushHeap(th *core.ThreadHeap) {
	c.returns.Add(1)
	th.DrainRemoteFrees()  //mesh:slowpath — the park drain point; settles queued frees while we still own the heap
	n := &heapNode{th: th} //mesh:slowpath — every push allocates one fresh node (ABA safety)
	for {
		n.next = c.overflow.Load()
		if c.overflow.CompareAndSwap(n.next, n) {
			c.idle.Add(1)
			return
		}
	}
}

// Release parks f back on the caller's stripe, probing the other stripes
// when that one is taken. It drains the heap's remote-free queue first,
// so a front never parks carrying message-passed work. When every stripe
// is full the front retires: its magazines flush and its heap goes onto
// the overflow stack. The error is the joined magazine flush errors
// (deferred invalid frees surfacing late); nil on every park.
//
//mesh:lockfree
func (c *Cache) Release(f *Front) error {
	f.th.DrainRemoteFrees() //mesh:slowpath — the park drain point; settles queued frees while we still own the heap
	f.parked.Store(int64(f.cached))
	if c.stripes[stripeOf()].slot.CompareAndSwap(nil, f) {
		return nil
	}
	for i := range c.stripes {
		if c.stripes[i].slot.Load() == nil && c.stripes[i].slot.CompareAndSwap(nil, f) {
			return nil
		}
	}
	return c.retire(f) //mesh:slowpath — every stripe full: flush magazines, push the heap onto the overflow stack
}

// retire flushes f's magazines and pushes its heap onto the overflow
// stack.
func (c *Cache) retire(f *Front) error {
	err := c.flushFront(f)
	c.pushHeap(f.th)
	return err
}

// flushFront drains every magazine of f through the batch free path.
func (c *Cache) flushFront(f *Front) error {
	var errs []error
	for class := range f.mags {
		if f.mags[class].n > 0 {
			if err := f.flushMagazine(class, f.mags[class].n); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}

// Flush relinquishes every parked heap: stripe fronts in index order
// (magazines flush first), then every heap on the overflow stack. Each
// heap's Done gives its attached spans back to the global heap, making
// them meshing candidates. Fronts held by in-flight calls are
// unaffected; they park again as those calls finish.
func (c *Cache) Flush() error {
	var errs []error
	for i := range c.stripes {
		if f := c.stripes[i].slot.Swap(nil); f != nil {
			errs = append(errs, c.flushFront(f), f.th.Done())
		}
	}
	for n := c.overflow.Swap(nil); n != nil; n = n.next {
		c.idle.Add(-1)
		errs = append(errs, n.th.Done())
	}
	return errors.Join(errs...)
}

// SetMagazineObjects sets the per-class magazine capacity (clamped to
// [0, MaxMagazineObjects]) and retires every parked front built with the
// old capacity (its heap keeps serving from the overflow stack); fronts
// created afterwards use the new one. 0 disables magazines while keeping
// the stripe layer.
func (c *Cache) SetMagazineObjects(n int) error {
	c.magObjects.Store(int64(clampMagObjects(n)))
	var errs []error
	for i := range c.stripes {
		if f := c.stripes[i].slot.Swap(nil); f != nil {
			errs = append(errs, c.retire(f))
		}
	}
	return errors.Join(errs...)
}

// MagazineObjects returns the current per-class magazine capacity.
func (c *Cache) MagazineObjects() int { return int(c.magObjects.Load()) }

// Hits counts stripe acquisitions served by a cached front.
func (c *Cache) Hits() uint64 {
	var n uint64
	for i := range c.stripes {
		n += c.stripes[i].hits.Load()
	}
	return n
}

// Misses counts stripe acquisitions that fell through to the overflow
// stack or a new heap.
func (c *Cache) Misses() uint64 {
	var n uint64
	for i := range c.stripes {
		n += c.stripes[i].misses.Load()
	}
	return n
}

// Idle counts heaps parked on the overflow stack.
func (c *Cache) Idle() int { return int(c.idle.Load()) }

// Created counts heaps ever created.
func (c *Cache) Created() int { return int(c.created.Load()) }

// Returns counts heaps pushed onto the overflow stack.
func (c *Cache) Returns() uint64 { return c.returns.Load() }

// Fills counts magazine batch refills (EvMagazineFill events).
func (c *Cache) Fills() uint64 { return c.fills.Load() }

// Flushes counts magazine batch drains (EvMagazineFlush events).
func (c *Cache) Flushes() uint64 { return c.flushes.Load() }

// CachedObjects gauges the objects parked in stripe magazines: the skew
// between heap-level and application-level accounting while magazines
// are populated. Approximate under traffic (fronts in flight mutate
// their magazines), exact at quiescence; 0 after Flush.
func (c *Cache) CachedObjects() int64 {
	var n int64
	for i := range c.stripes {
		if f := c.stripes[i].slot.Load(); f != nil {
			n += f.parked.Load()
		}
	}
	return n
}

// Heap exposes the front's cached heap for calls that bypass magazines
// but still want the stripe-cached heap (batch, calloc/realloc, aligned).
func (f *Front) Heap() *core.ThreadHeap { return f.th }

// Malloc allocates size bytes. The magazine hit — the steady-state case
// once warm — is routing plus an array pop: no locks, no shared atomics,
// not even the accounting pair (it was paid by the batch fill). Misses
// batch-refill; non-magazine requests (large, invalid, magazines off)
// take the cached heap's ordinary path.
//
//mesh:lockfree
func (f *Front) Malloc(size int) (uint64, error) {
	if f.magCap > 0 {
		if class, ok := f.th.AllocClass(size); ok {
			m := &f.mags[class]
			if m.n > 0 {
				m.n--
				f.cached--
				return m.objs[m.n], nil
			}
			return f.fillAndPop(class) //mesh:slowpath — magazine empty: batch-refill from the cached heap
		}
	}
	return f.th.Malloc(size) //mesh:slowpath — large or invalid request, or magazines off: the heap's ordinary path
}

// Free releases the object at addr. A magazine-eligible free — a valid
// small object while there is magazine room — is an array push with zero
// shared atomics; the object's actual release (remote queue or shard
// lock, hardening poison, quarantine) is deferred to the flush. See the
// package comment for the trust-the-caller consequences.
//
//mesh:lockfree
func (f *Front) Free(addr uint64) error {
	if f.magCap > 0 {
		if class, ok := f.classOf(addr); ok {
			m := &f.mags[class]
			if m.objs != nil && m.n < f.magCap {
				m.objs[m.n] = addr
				m.n++
				f.cached++
				return nil
			}
			return f.slowFree(class, addr) //mesh:slowpath — magazine full or not yet materialized: flush half, then push
		}
	}
	return f.th.Free(addr) //mesh:slowpath — non-magazine free (large, foreign, invalid): the heap's ordinary path, which reports errors
}

// classOf decides magazine eligibility for a free: a small-object address
// that the lock-free page map resolves, lands on a valid slot boundary,
// and is currently allocated. Everything else — large objects, retired
// spans, interior pointers, double frees of already-settled objects —
// reports false and takes the ordinary path, which produces the typed
// errors. The bitmap probe is best-effort (racy by design, like the
// paper's fast path): it routes stale frees to the checked path but
// cannot catch a double free of an object currently parked in a
// magazine.
//
//mesh:lockfree
func (f *Front) classOf(addr uint64) (int, bool) {
	mh := f.c.pages.Lookup(addr)
	if mh == nil || mh.IsLarge() || mh.IsRetired() {
		return 0, false
	}
	off, err := mh.OffsetOf(addr)
	if err != nil {
		return 0, false
	}
	if !mh.Bitmap().IsSet(off) {
		return 0, false
	}
	return mh.SizeClass(), true
}

// fillAndPop restocks an empty magazine with half its capacity through
// the exact-class batch path — one coalesced accounting update, the
// refill/drain protocol, per-object hardening checks — and pops one.
func (f *Front) fillAndPop(class int) (uint64, error) {
	m := &f.mags[class]
	if m.objs == nil {
		m.objs = make([]uint64, f.magCap)
	}
	want := f.magCap / 2
	if want < 1 {
		want = 1
	}
	out, err := f.th.MallocClassBatch(class, want, m.objs[:0])
	if err != nil {
		// All-or-nothing: the magazine stays empty.
		return 0, err
	}
	m.n = len(out)
	f.cached += m.n
	f.c.fills.Add(1)
	f.c.tr.Event(trace.EvMagazineFill, uint64(class), uint64(m.n))
	m.n--
	f.cached--
	return m.objs[m.n], nil
}

// slowFree pushes addr after making room: materialize the magazine on
// first use, or flush half of a full one. A flush error surfaces here —
// a deferred invalid free discovered at the locked path — while addr
// itself is still cached.
func (f *Front) slowFree(class int, addr uint64) error {
	m := &f.mags[class]
	if m.objs == nil {
		m.objs = make([]uint64, f.magCap)
	}
	var err error
	if m.n >= f.magCap {
		k := f.magCap / 2
		if k < 1 {
			k = 1
		}
		err = f.flushMagazine(class, k)
	}
	m.objs[m.n] = addr
	m.n++
	f.cached++
	return err
}

// flushMagazine releases the oldest k cached objects of class through
// the batch free path. Each object takes the scalar free's steps —
// shuffle vector or remote queue, hardening poison and quarantine, and
// the sampled free event with its object size — and the frees that reach
// the global heap take each shard lock once per batch.
func (f *Front) flushMagazine(class, k int) error {
	m := &f.mags[class]
	if k > m.n {
		k = m.n
	}
	if k <= 0 {
		return nil
	}
	err := f.th.FreeBatch(m.objs[:k])
	copy(m.objs, m.objs[k:m.n])
	m.n -= k
	f.cached -= k
	f.c.flushes.Add(1)
	f.c.tr.Event(trace.EvMagazineFlush, uint64(class), uint64(k))
	if err != nil {
		return fmt.Errorf("frontend: magazine flush (class %d): %w", class, err)
	}
	return nil
}
