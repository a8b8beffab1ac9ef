package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fragmentHeap builds a heap with many sparse detached spans of the
// 16-byte class: spans * 256 allocations with all but every 16th freed,
// then detached. Randomized allocation gives each span a different sparse
// bitmap, so meshable pairs abound. It returns the surviving addresses,
// each pre-written with a recognizable byte.
func fragmentHeap(t testing.TB, g *GlobalHeap, th *ThreadHeap, spans int) map[uint64]byte {
	t.Helper()
	var addrs []uint64
	for i := 0; i < spans*256; i++ {
		a, err := th.Malloc(16)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	keep := map[uint64]byte{}
	for i, a := range addrs {
		if i%16 != 0 {
			if err := th.Free(a); err != nil {
				t.Fatal(err)
			}
			continue
		}
		val := byte(i%251 + 1)
		if err := g.OS().Write(a, []byte{val}); err != nil {
			t.Fatal(err)
		}
		keep[a] = val
	}
	if err := th.Done(); err != nil {
		t.Fatal(err)
	}
	return keep
}

// meshRun is one heap after a single meshing pass: the spans the pass
// released and the objects that survived it, each with its written byte.
type meshRun struct {
	g        *GlobalHeap
	released int
	keep     map[uint64]byte
}

// meshInlineAndDaemon builds two identical fragmented heaps and runs one
// meshing pass on each, started the two ways a pass starts: inline, on the
// goroutine whose global free finds the mesh period elapsed, and as the
// daemon does it, where that free only nudges the notifier and another
// goroutine runs the pass. The triggering free releases the lowest kept
// address, which is dropped from keep.
func meshInlineAndDaemon(t *testing.T, mutate func(*Config), spans int) (inline, daemon meshRun) {
	t.Helper()
	run := func(background bool) meshRun {
		// The hour-long period keeps setup frees from meshing early (the
		// logical clock never reaches it); the trigger below lowers it.
		g, th := testHeap(t, func(c *Config) {
			mutate(c)
			c.MeshPeriod = time.Hour
		})
		keep := fragmentHeap(t, g, th, spans)
		victim := uint64(math.MaxUint64)
		for a := range keep {
			victim = min(victim, a)
		}
		delete(keep, victim)
		done := make(chan int, 1)
		if background {
			g.SetMeshNotifier(func() { go func() { done <- g.Mesh() }() })
			g.SetBackgroundMeshing(true)
		}
		g.SetMeshPeriod(0)
		if err := g.Free(victim); err != nil {
			t.Fatal(err)
		}
		r := meshRun{g: g, keep: keep}
		if background {
			r.released = <-done
		} else {
			r.released = int(g.Stats().Mesh.SpansMeshed)
		}
		if passes := g.Stats().Mesh.Passes; passes != 1 {
			t.Fatalf("background=%v: the trigger ran %d passes, want 1", background, passes)
		}
		return r
	}
	return run(false), run(true)
}

// checkSameMeshes asserts that the inline and daemon runs of one workload
// did the same work: same spans released, same resident set.
func checkSameMeshes(t *testing.T, inline, daemon meshRun) {
	t.Helper()
	if inline.released != daemon.released {
		t.Fatalf("inline pass released %d spans, daemon pass %d (same seed, same workload)",
			inline.released, daemon.released)
	}
	if ri, rd := inline.g.OS().RSSPages(), daemon.g.OS().RSSPages(); ri != rd {
		t.Fatalf("inline RSS %d pages != daemon RSS %d pages", ri, rd)
	}
}

// TestMeshPauseStatsDeterministic pins the pause accounting exactly: pause
// timing and rate limiting run off the injected Clock, so with a logical
// clock and a per-pair step cost every hold of the pass is known in
// advance. A class slice records one plan-and-protect hold (no simulated
// time passes while planning) and fix-up chunks that close at the first
// pair past max_pause, and the inline and daemon runs record the same
// histogram.
func TestMeshPauseStatsDeterministic(t *testing.T) {
	const (
		cost     = time.Millisecond
		maxPause = 3 * cost
	)
	inline, daemon := meshInlineAndDaemon(t, func(c *Config) {
		c.MeshStepCost = cost
		c.MaxPause = maxPause
	}, 16)
	checkSameMeshes(t, inline, daemon)
	released := inline.released
	perChunk := int(maxPause/cost) + 1
	if released <= perChunk {
		t.Fatalf("pass released only %d spans; need more than one fix-up chunk", released)
	}
	unsliced := time.Duration(released) * cost
	want := PauseHistogram{Count: 1, Total: unsliced, Longest: time.Duration(perChunk) * cost}
	want.Buckets[pauseBucket(0)] = 1
	for left := released; left > 0; left -= perChunk {
		want.Count++
		want.Buckets[pauseBucket(time.Duration(min(left, perChunk))*cost)]++
	}
	for name, run := range map[string]meshRun{"inline": inline, "daemon": daemon} {
		ms := run.g.Stats().Mesh
		if ms.Pauses != want {
			t.Fatalf("%s: Pauses = %+v, want %+v", name, ms.Pauses, want)
		}
		if ms.TotalTime != unsliced {
			t.Fatalf("%s: TotalTime = %v, want %v", name, ms.TotalTime, unsliced)
		}
		if ms.LongestPause > maxPause+cost || ms.LongestPause >= unsliced {
			t.Fatalf("%s: longest pause %v, want <= %v and < %v", name, ms.LongestPause, maxPause+cost, unsliced)
		}
	}
}

func TestPauseBuckets(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{time.Microsecond, 0},
		{time.Microsecond + 1, 1},
		{time.Millisecond, 3},
		{20 * time.Millisecond, 5},
		{2 * time.Second, NumPauseBuckets - 1},
	}
	for _, tc := range cases {
		if got := pauseBucket(tc.d); got != tc.want {
			t.Errorf("pauseBucket(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
	if PauseBucketBound(0) != time.Microsecond {
		t.Errorf("PauseBucketBound(0) = %v", PauseBucketBound(0))
	}
	if PauseBucketBound(NumPauseBuckets-1) >= 0 {
		t.Error("last bucket must be unbounded")
	}
}

// TestMeshBackgroundBoundedPauses is the core of §4.5's bounded-pause
// goal: under a meshing-heavy load the one meshing pass does the same
// work whether it runs inline or on the daemon side, and in both modes
// its longest shard-lock hold stays under the max-pause budget plus one
// pair's fix-up — far below the pairs × cost a pass holding the lock for
// all its fix-ups would take — measured deterministically with the
// injected clock.
func TestMeshBackgroundBoundedPauses(t *testing.T) {
	const (
		cost     = time.Millisecond
		maxPause = 3 * cost
		spans    = 64
	)
	inline, daemon := meshInlineAndDaemon(t, func(c *Config) {
		c.MeshStepCost = cost
		c.MaxPause = maxPause
	}, spans)
	checkSameMeshes(t, inline, daemon)
	if inline.released < 8 {
		t.Fatalf("pass released only %d spans; workload not meshing-heavy", inline.released)
	}
	unsliced := time.Duration(inline.released) * cost
	for name, run := range map[string]meshRun{"inline": inline, "daemon": daemon} {
		ms := run.g.Stats().Mesh
		// Each fix-up chunk stops at the first pair that crosses the
		// budget, so no pause exceeds maxPause + one pair's cost.
		if ms.LongestPause > maxPause+cost {
			t.Fatalf("%s pause %v exceeds budget %v + %v", name, ms.LongestPause, maxPause, cost)
		}
		if ms.LongestPause >= unsliced {
			t.Fatalf("%s pause %v not below the unsliced %v", name, ms.LongestPause, unsliced)
		}
		// The work was split into several pauses, all recorded.
		if ms.Pauses.Count < uint64(run.released)/4 {
			t.Fatalf("%s: only %d pauses recorded for %d pairs", name, ms.Pauses.Count, run.released)
		}
		if ms.Pauses.Longest != ms.LongestPause {
			t.Fatalf("%s: histogram longest %v != LongestPause %v", name, ms.Pauses.Longest, ms.LongestPause)
		}
	}

	// The meshing invariant holds across the concurrent protocol: every
	// surviving address reads its original byte, and frees still resolve.
	gb, keep := daemon.g, daemon.keep
	for addr, val := range keep {
		b, err := gb.OS().ByteAt(addr)
		if err != nil {
			t.Fatalf("read %#x: %v", addr, err)
		}
		if b != val {
			t.Fatalf("content at %#x changed: %d != %d", addr, b, val)
		}
	}
	if err := gb.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	th2 := NewThreadHeap(gb, 99)
	for addr := range keep {
		if err := th2.Free(addr); err != nil {
			t.Fatalf("free %#x after background mesh: %v", addr, err)
		}
	}
	if live := gb.Stats().Live; live != 0 {
		t.Fatalf("live = %d after freeing all", live)
	}
}

// TestBackgroundModeNudgesInsteadOfMeshing verifies the free-path rewiring:
// with background meshing on, a free that reaches the global heap calls
// the notifier and returns without running a pass inline.
func TestBackgroundModeNudgesInsteadOfMeshing(t *testing.T) {
	g, th := testHeap(t, nil)
	var nudges atomic.Int64
	g.SetMeshNotifier(func() { nudges.Add(1) })
	g.SetBackgroundMeshing(true)

	buildMeshableSpans(t, g, th)
	// buildMeshableSpans frees through the thread heap; spans detach on
	// Done. Now a direct global free must nudge, not mesh.
	a, err := th.Malloc(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Done(); err != nil {
		t.Fatal(err)
	}
	if err := g.Free(a); err != nil {
		t.Fatal(err)
	}
	if nudges.Load() == 0 {
		t.Fatal("global free in background mode did not nudge")
	}
	if passes := g.Stats().Mesh.Passes; passes != 0 {
		t.Fatalf("free ran %d inline passes in background mode", passes)
	}

	// Flipping background off restores the inline trigger.
	g.SetBackgroundMeshing(false)
	g.SetMeshNotifier(nil)
	th2 := NewThreadHeap(g, 2)
	b, err := th2.Malloc(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := th2.Done(); err != nil {
		t.Fatal(err)
	}
	if err := g.Free(b); err != nil {
		t.Fatal(err)
	}
	if passes := g.Stats().Mesh.Passes; passes == 0 {
		t.Fatal("inline meshing did not resume after background mode off")
	}
}

// TestMeshBackgroundConcurrentWriters drives the §4.5.2 write-barrier
// protocol at the core layer: writer goroutines hammer live objects while
// meshing passes mesh their spans out from under them. Every write must
// either land before the copy (and be carried by it) or fault, wait out
// the barrier, and land in the destination span.
func TestMeshBackgroundConcurrentWriters(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 7
	// Widen each pair's protect→remap window to a realistic copy duration;
	// instant copies would make writer/barrier collisions vanishingly rare.
	cfg.MeshCopyCost = 20 * time.Microsecond
	g := NewGlobalHeap(cfg)
	th := NewThreadHeap(g, 1)
	keep := fragmentHeap(t, g, th, 32)

	addrs := make([]uint64, 0, len(keep))
	for a := range keep {
		addrs = append(addrs, a)
	}
	const workers = 4
	if len(addrs)%workers != 0 {
		t.Fatalf("%d live objects not divisible by %d workers", len(addrs), workers)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			val := byte(w + 1)
			// Worker w owns addresses at indices ≡ w mod workers, so
			// ownership is disjoint and every read-back must see the
			// worker's own last write — a lost update is a barrier bug.
			for i := w; ; i += workers {
				select {
				case <-stop:
					return
				default:
				}
				a := addrs[i%len(addrs)]
				if err := g.OS().Write(a, []byte{val}); err != nil {
					errc <- err
					return
				}
				b, err := g.OS().ByteAt(a)
				if err != nil {
					errc <- err
					return
				}
				if b != val {
					errc <- fmt.Errorf("write to %#x lost: read %d, want %d", a, b, val)
					return
				}
			}
		}(w)
	}

	// Run background passes while the writers hammer; churning fresh
	// fragmented spans between passes keeps meshing candidates flowing.
	g.SetMaxPause(100 * time.Microsecond)
	for round := 0; round < 8; round++ {
		churn := NewThreadHeap(g, uint64(10+round))
		fragmentHeap(t, g, churn, 8)
		g.Mesh()
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if err := g.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.Mesh.SpansMeshed == 0 {
		t.Fatal("no spans meshed during the concurrent run")
	}
	// With windows hundreds of microseconds wide and four writers cycling
	// every live object, some writes must have hit protected spans and
	// taken the §4.5.2 fault path.
	if st.VM.Faults == 0 {
		t.Fatal("no write faults taken: the write barrier never engaged")
	}
}
