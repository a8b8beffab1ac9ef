package frontend

import (
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// testCache builds a Cache over a fresh global heap, the way mesh wires
// it.
func testCache(t *testing.T, magObjects int) *Cache {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Clock = core.NewLogicalClock()
	cfg.MeshPeriod = 0
	return NewCache(core.NewGlobalHeap(cfg), magObjects, new(atomic.Uint64))
}

func TestStripeParkAndReuse(t *testing.T) {
	c := testCache(t, 0)
	f := c.Acquire()
	if c.Created() != 1 || c.Misses() != 1 {
		t.Fatalf("cold acquire: created=%d misses=%d, want 1/1", c.Created(), c.Misses())
	}
	p, err := f.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Release(f); err != nil {
		t.Fatal(err)
	}
	// Same goroutine, same stack page: the second acquire must hit the
	// parked front without creating a heap.
	g := c.Acquire()
	if g != f {
		t.Fatalf("warm acquire returned %p, want the parked front %p", g, f)
	}
	if c.Created() != 1 || c.Hits() != 1 {
		t.Fatalf("warm acquire: created=%d hits=%d, want 1/1", c.Created(), c.Hits())
	}
	if err := g.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := c.Release(g); err != nil {
		t.Fatal(err)
	}
	// Flush relinquishes the parked heap instead of keeping it: the next
	// acquire misses and creates a fresh one.
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if c.Acquire() == f || c.Created() != 2 {
		t.Fatalf("acquire after Flush reused the flushed front (created=%d)", c.Created())
	}
}

func TestReleaseOverflowRetires(t *testing.T) {
	c := testCache(t, 0)
	// One goroutine acquires more fronts than there are stripes: every
	// Acquire empties the caller's stripe, so each is a miss. Releasing
	// all of them can park at most NumStripes fronts (own stripe + the
	// probe); the rest must retire onto the overflow stack.
	const extra = 3
	fronts := make([]*Front, NumStripes+extra)
	heaps := map[*core.ThreadHeap]bool{}
	for i := range fronts {
		fronts[i] = c.Acquire()
		heaps[fronts[i].Heap()] = true
	}
	if c.Created() != len(fronts) {
		t.Fatalf("created = %d, want %d", c.Created(), len(fronts))
	}
	for _, f := range fronts {
		if err := c.Release(f); err != nil {
			t.Fatal(err)
		}
	}
	if c.Returns() != extra || c.Idle() != extra {
		t.Fatalf("overflow releases: returns=%d idle=%d, want %d/%d", c.Returns(), c.Idle(), extra, extra)
	}
	// The first acquire hits the front parked on the caller's stripe; the
	// next one misses and must pop the overflow stack, not create a heap.
	c.Acquire()
	f := c.Acquire()
	if !heaps[f.Heap()] || c.Created() != len(fronts) || c.Idle() != extra-1 {
		t.Fatalf("miss with a non-empty overflow stack: reused=%v created=%d idle=%d",
			heaps[f.Heap()], c.Created(), c.Idle())
	}
}

func TestMagazineFillAndFlush(t *testing.T) {
	const cap = 8
	c := testCache(t, cap)
	f := c.Acquire()

	// Cold magazine: the first Malloc batch-fills half the capacity and
	// pops one.
	p, err := f.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if c.Fills() != 1 {
		t.Fatalf("fills = %d after cold malloc, want 1", c.Fills())
	}
	if f.cached != cap/2-1 {
		t.Fatalf("cached = %d after fill+pop, want %d", f.cached, cap/2-1)
	}
	// The remaining half-capacity allocations are all magazine pops: no
	// further fills.
	ptrs := []uint64{p}
	for i := 0; i < cap/2-1; i++ {
		q, err := f.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, q)
	}
	if c.Fills() != 1 {
		t.Fatalf("fills = %d after warm mallocs, want 1", c.Fills())
	}
	seen := map[uint64]bool{}
	for _, q := range ptrs {
		if seen[q] {
			t.Fatalf("duplicate address %#x from magazine", q)
		}
		seen[q] = true
	}

	// Frees push back without flushing until the magazine overflows.
	for _, q := range ptrs {
		if err := f.Free(q); err != nil {
			t.Fatal(err)
		}
	}
	if c.Flushes() != 0 {
		t.Fatalf("flushes = %d before overflow, want 0", c.Flushes())
	}
	// Balanced pop/push traffic can never overflow; imbalance comes from
	// frees of objects the magazine didn't supply. Allocate around the
	// magazine (the heap's ordinary path), then free through it: the
	// pushes land on top of the cached half and force a half flush.
	var more []uint64
	for i := 0; i < cap; i++ {
		q, err := f.Heap().Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		more = append(more, q)
	}
	for _, q := range more {
		if err := f.Free(q); err != nil {
			t.Fatal(err)
		}
	}
	if c.Flushes() == 0 {
		t.Fatal("overfreeing never flushed the magazine")
	}

	if err := c.Release(f); err != nil {
		t.Fatal(err)
	}
	if got := c.CachedObjects(); got == 0 {
		t.Fatal("parked front reported no cached objects")
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := c.CachedObjects(); got != 0 {
		t.Fatalf("cached objects = %d after Flush, want 0", got)
	}
}

func TestMagazineRoutesIneligibleFrees(t *testing.T) {
	c := testCache(t, 8)
	f := c.Acquire()
	// An address the page map cannot resolve is not magazine-eligible; it
	// takes the heap's ordinary path and keeps its typed error.
	if err := f.Free(0xdead0000); err == nil {
		t.Fatal("invalid free through the magazine path reported no error")
	}
	// Large objects bypass magazines entirely.
	p, err := f.Malloc(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Free(p); err != nil {
		t.Fatal(err)
	}
	if c.Fills() != 0 || c.Flushes() != 0 {
		t.Fatalf("large round trip touched magazines: fills=%d flushes=%d", c.Fills(), c.Flushes())
	}
	// A settled double free (freed, flushed out of the magazine) is
	// routed to the checked path and reported.
	q, err := f.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Free(q); err != nil {
		t.Fatal(err)
	}
	if err := c.Release(f); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil { // settles q out of the magazine
		t.Fatal(err)
	}
	f = c.Acquire()
	if err := f.Free(q); err == nil {
		t.Fatal("double free of a settled object reported no error")
	}
	if err := c.Release(f); err != nil {
		t.Fatal(err)
	}
}

func TestSetMagazineObjectsClampsAndRetiresStaleFronts(t *testing.T) {
	c := testCache(t, MaxMagazineObjects+100)
	if got := c.MagazineObjects(); got != MaxMagazineObjects {
		t.Fatalf("capacity = %d, want clamped %d", got, MaxMagazineObjects)
	}
	f := c.Acquire()
	if f.magCap != MaxMagazineObjects {
		t.Fatalf("front capacity = %d, want %d", f.magCap, MaxMagazineObjects)
	}
	p, err := f.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := c.Release(f); err != nil {
		t.Fatal(err)
	}
	// Capacity writes retire parked fronts, so no front built with the
	// old capacity survives; the next acquire sees the new setting.
	if err := c.SetMagazineObjects(4); err != nil {
		t.Fatal(err)
	}
	if c.Returns() != 1 {
		t.Fatalf("capacity write retired %d fronts, want 1", c.Returns())
	}
	g := c.Acquire()
	if g.magCap != 4 {
		t.Fatalf("new front capacity = %d, want 4", g.magCap)
	}
	if err := c.Release(g); err != nil {
		t.Fatal(err)
	}
	if err := c.SetMagazineObjects(-1); err != nil {
		t.Fatal(err)
	}
	if got := c.MagazineObjects(); got != 0 {
		t.Fatalf("negative capacity clamped to %d, want 0", got)
	}
}

func TestMagazineAccountingBalancesAtQuiescence(t *testing.T) {
	// Heap-level accounting counts magazine population as allocated; the
	// identity allocs == frees must close once the cache flushes.
	c := testCache(t, 16)
	f := c.Acquire()
	var live []uint64
	for i := 0; i < 200; i++ {
		p, err := f.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, p)
	}
	for _, p := range live {
		if err := f.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Release(f); err != nil {
		t.Fatal(err)
	}
	if c.CachedObjects() <= 0 {
		t.Fatal("app-level quiescence left no magazine skew to report")
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if c.CachedObjects() != 0 {
		t.Fatalf("cached objects = %d after Flush, want 0", c.CachedObjects())
	}
}

// onOtherStripe runs fn on a fresh goroutine, recursing through padded
// frames until fn reports that it got off the stripe it must avoid. fn
// checks the stripe itself: it runs a frame deeper than descend (and what
// it calls deeper still), so a stack page descend sees hashing elsewhere
// says nothing about fn's own.
func onOtherStripe(fn func() bool) {
	done := make(chan struct{})
	var descend func(depth int)
	descend = func(depth int) {
		var pad [1024]byte
		if !fn() && depth < 256 {
			descend(depth + 1)
			pad[depth%len(pad)]++
		}
	}
	go func() {
		defer close(done)
		descend(0)
	}()
	<-done
}

// TestCachedObjectsCountsMigratedFrontOnce is the regression for a front
// that migrates stripes between calls: acquired on one stripe and parked
// on another (a goroutine whose stack grew, or a different goroutine), it
// must be counted once by stats.frontend.cached_objects, not once per
// stripe it has visited.
func TestCachedObjectsCountsMigratedFrontOnce(t *testing.T) {
	c := testCache(t, 8)
	home := stripeOf()
	f := c.Acquire()
	p, err := f.Malloc(64) // cold fill: half the capacity, one popped
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Release(f); err != nil {
		t.Fatal(err)
	}
	want := int64(f.cached)
	if want == 0 || c.CachedObjects() != want {
		t.Fatalf("parked front: CachedObjects=%d, front.cached=%d", c.CachedObjects(), want)
	}
	f = c.Acquire() // hit: empties the home stripe
	var rerr error
	onOtherStripe(func() bool {
		if stripeOf() == home {
			return false
		}
		if rerr = c.Release(f); rerr != nil {
			return true
		}
		// Release hashes its own frame, which can land back on home:
		// take the front back and try from deeper down.
		return !c.stripes[home].slot.CompareAndSwap(f, nil)
	})
	if rerr != nil {
		t.Fatal(rerr)
	}
	parkedOn := -1
	for i := range c.stripes {
		if c.stripes[i].slot.Load() == f {
			parkedOn = i
		}
	}
	if parkedOn < 0 || parkedOn == home {
		t.Fatalf("front parked on stripe %d, want a stripe other than home %d", parkedOn, home)
	}
	if got := c.CachedObjects(); got != want {
		t.Fatalf("migrated front: CachedObjects=%d, want %d (front.cached=%d)", got, want, f.cached)
	}
	f = c.Acquire() // misses the home stripe: a second front
	if err := f.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := c.Release(f); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := c.CachedObjects(); got != 0 {
		t.Fatalf("CachedObjects=%d after Flush, want 0", got)
	}
}
