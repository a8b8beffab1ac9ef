package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
	"unsafe"

	"repro/mesh"
)

// workload is one benchmark scenario. Each round builds a fresh allocator
// with a LogicalClock and the run's seed, so the same seed replays the same
// inputs in every round.
type workload struct {
	name       string
	requests   int           // timed requests per round
	rssEvery   int           // requests between RSS samples
	tick       time.Duration // logical time per request
	background bool          // run the background meshing daemon
	newState   func(seed uint64, requests int) state
}

// state is one round's generator and its record of what it expects the
// heap to hold.
type state interface {
	// prefill builds the workload's starting heap (part of setup).
	prefill(c *client) error
	// run issues the timed requests, reporting each through rec, and
	// returns once every goroutine it started has exited.
	run(c *client, rec *recorder)
	// verify reads back whatever the workload wrote and reports whether
	// every object holds its stamp.
	verify(c *client) bool
	// liveObjects is the number of objects the workload still holds.
	liveObjects() int64
}

// recorder times requests from the generator's side and samples RSS on a
// request count, never on a timer.
type recorder struct {
	a        *mesh.Allocator
	clk      *mesh.LogicalClock
	log      *spanLog
	tick     time.Duration
	rssEvery int
	lat      []time.Duration // on the generator thread's CPU clock
	wallLat  []time.Duration // on the wall clock
	rss      []int64
	failed   int
}

// request is one request in flight: its start on the generator thread's
// CPU clock and on the wall clock.
type request struct {
	cpu  time.Duration
	wall time.Time
}

// begin starts timing one request.
func (r *recorder) begin() request {
	q := request{wall: time.Now()}
	if r.log != nil {
		r.log.beginRequest(q.wall)
	}
	q.cpu = cpuClock(threadClock)
	return q
}

// done ends request q, then advances the logical clock and samples RSS
// outside the timed interval.
func (r *recorder) done(q request, ok bool) {
	cpu := cpuClock(threadClock)
	t1 := time.Now()
	r.lat = append(r.lat, cpu-q.cpu)
	r.wallLat = append(r.wallLat, t1.Sub(q.wall))
	if r.log != nil {
		r.log.endRequest(t1)
	}
	if !ok {
		r.failed++
	}
	r.clk.Advance(r.tick)
	if len(r.lat)%r.rssEvery == 0 {
		r.rss = append(r.rss, r.a.RSS())
	}
}

// counters is the allocator's cumulative activity at one instant.
type counters struct {
	st                              mesh.Stats
	hits, misses, borrows, acquires uint64
}

func readCounters(a *mesh.Allocator) (counters, error) {
	c := counters{st: a.Stats()}
	for _, f := range []struct {
		key string
		dst *uint64
	}{
		{"stats.frontend.hits", &c.hits},
		{"stats.frontend.misses", &c.misses},
		{"stats.pool.borrows", &c.borrows},
		{"stats.global.shard_acquires", &c.acquires},
	} {
		v, err := a.ReadControl(f.key)
		if err != nil {
			return c, err
		}
		n, ok := v.(uint64)
		if !ok {
			return c, fmt.Errorf("%s: got %T, want uint64", f.key, v)
		}
		*f.dst = n
	}
	return c, nil
}

// roundResult is everything one round measured.
type roundResult struct {
	traced    bool
	setup     time.Duration // on the thread CPU clock
	wall      time.Duration // the timed phase on the wall clock
	timed     time.Duration // the timed phase on the process CPU clock
	requests  int
	failed    int
	lat       []time.Duration // request latencies on the generator's CPU clock
	wallLat   []time.Duration // the same requests on the wall clock
	rss       []int64
	rssFinal  int64
	live      int64
	before    counters
	after     counters
	backlog   int64 // remote frees queued but not drained when the timed phase ended
	gcCycles  uint64
	mutexWait time.Duration // time goroutines spent blocked on mutexes in the timed phase
	badChecks []string
	logs      []*spanLog
}

// CPU clocks of clock_gettime(2).
const (
	processClock = 2 // CLOCK_PROCESS_CPUTIME_ID
	threadClock  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// cpuClock reads a CPU clock. Requests are timed on CPU clocks because
// the VMs of a shared host steal each other's CPUs in bursts of
// milliseconds: on the wall clock that set p99 on every workload and cut
// pipeline throughput by up to half from one run to the next. Linux leaves
// stolen time out of these clocks. They also leave out time a thread
// spends parked, on a lock or at the mesh write barrier; the traced run
// reports that separately, from the wall clock and the runtime's mutex
// wait time.
func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	// Cannot fail for these clocks.
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// runtimeCounts reads the Go runtime's GC cycle count and the time
// goroutines have spent blocked on a sync.Mutex or runtime lock. The
// allocator's shard locks and mesh write barrier are such mutexes, so the
// second counts the parking that CPU clocks leave out.
func runtimeCounts() (gc uint64, mutexWait time.Duration) {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/sync/mutex/wait/total:seconds"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), time.Duration(s[1].Value.Float64() * float64(time.Second))
}

// stackReserve is the stack a round's goroutines grow to before their
// first allocator call, so the stack never has to move during a round.
const stackReserve = 64 << 10

// growStack uses stackReserve bytes of stack and returns.
//
//go:noinline
func growStack() byte {
	var pad [stackReserve]byte
	for i := range pad {
		pad[i] = byte(i)
	}
	return pad[len(pad)-1]
}

// goFresh runs f on a new goroutine with a pre-grown stack and returns
// once it has exited. The allocator's front end picks a cache stripe by
// the caller's stack address, so a stack that moved mid-round (to grow,
// or to shrink at a GC) would change which heap serves the calls, and
// with it the memory figures. With stack shrinking off (see main), a
// pre-grown stack never moves.
func goFresh(f func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Pinned, so the thread CPU clock is this goroutine's.
		runtime.LockOSThread()
		growStack()
		f()
	}()
	<-done
}

// runRound sets up one allocator, drives the timed phase, quiesces, and
// checks the heap. A failed check fails every request of the round.
func runRound(w *workload, seed uint64, traced bool) (res *roundResult, err error) {
	goFresh(func() { res, err = round(w, seed, traced) })
	return res, err
}

func round(w *workload, seed uint64, traced bool) (*roundResult, error) {
	res := &roundResult{traced: traced}
	clk := mesh.NewLogicalClock()
	// Collect the previous round's heap now, so setup does not pay for it.
	runtime.GC()
	// Setup is timed on this goroutine's thread CPU clock, like requests.
	t0 := cpuClock(threadClock)
	a := mesh.New(mesh.WithSeed(seed), mesh.WithClock(clk), mesh.WithBackgroundMeshing(w.background))
	defer a.Close() // stops the daemon on every path; the heap is dropped after the round
	c := &client{a: a}
	if traced {
		c.log = &spanLog{}
		c.all = &[]*spanLog{c.log}
	}
	st := w.newState(seed, w.requests)
	if err := st.prefill(c); err != nil {
		return nil, fmt.Errorf("%s prefill: %w", w.name, err)
	}
	res.setup = cpuClock(threadClock) - t0

	runtime.GC()
	var err error
	if res.before, err = readCounters(a); err != nil {
		return nil, err
	}
	gc0, wait0 := runtimeCounts()
	rec := &recorder{a: a, clk: clk, log: c.log, tick: w.tick, rssEvery: w.rssEvery,
		lat: make([]time.Duration, 0, w.requests), wallLat: make([]time.Duration, 0, w.requests)}
	t1, cpu1 := time.Now(), cpuClock(processClock)
	st.run(c, rec)
	res.wall, res.timed = time.Since(t1), cpuClock(processClock)-cpu1
	gc1, wait1 := runtimeCounts()
	res.gcCycles, res.mutexWait = gc1-gc0, wait1-wait0
	if res.after, err = readCounters(a); err != nil {
		return nil, err
	}
	res.backlog = int64(res.after.st.Remote.Queued) - int64(res.after.st.Remote.Drained)
	res.requests, res.failed, res.lat, res.wallLat, res.rss = len(rec.lat), rec.failed, rec.lat, rec.wallLat, rec.rss
	if res.requests != w.requests {
		res.badChecks = append(res.badChecks, fmt.Sprintf("requests: ran %d of %d", res.requests, w.requests))
	}

	// Quiesce (the paper's Fig 7 end point), then check the heap.
	if w.background {
		// Stop the daemon so the final pass and the checks see a still
		// heap.
		if err := a.Close(); err != nil {
			res.badChecks = append(res.badChecks, "close: "+err.Error())
		}
	}
	if err := c.flush(); err != nil {
		res.badChecks = append(res.badChecks, "flush: "+err.Error())
	}
	c.mesh()
	res.rssFinal = a.RSS()
	s := a.Stats()
	res.live = s.Live
	if !st.verify(c) {
		res.badChecks = append(res.badChecks, "contents")
	}
	if got, want := int64(s.Allocs-s.Frees), st.liveObjects(); got != want {
		res.badChecks = append(res.badChecks, fmt.Sprintf("allocs-frees: heap has %d live objects, workload holds %d", got, want))
	}
	if s.Remote.Queued != s.Remote.Drained {
		res.badChecks = append(res.badChecks, fmt.Sprintf("remote-drained: queued %d, drained %d", s.Remote.Queued, s.Remote.Drained))
	}
	if err := a.CheckIntegrity(); err != nil {
		res.badChecks = append(res.badChecks, "integrity: "+err.Error())
	}
	if len(res.badChecks) > 0 {
		res.failed = res.requests
	}
	if c.all != nil {
		res.logs = *c.all
	}
	return res, nil
}
