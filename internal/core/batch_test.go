package core

import (
	"maps"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/sizeclass"
	"repro/internal/trace"
)

// TestBatchMatchesScalar runs one malloc/free sequence twice — once through
// Malloc and Free, once through MallocBatch and FreeBatch — and demands
// the same trace events, fault-site hits and heap counters from both: the
// batch path amortizes accounting and shard locks but takes every
// per-object step the scalar path takes.
func TestBatchMatchesScalar(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		remote bool // a second heap frees the owner's objects
		n      int
		// What the scalar run must show, so no case passes vacuously.
		queued, segHits, quarantined uint64
	}{
		{name: "local", n: 4},
		{name: "remote-queued", remote: true, n: 4, queued: 4},
		{name: "remote-segment-fault", remote: true, n: 8, segHits: 8,
			mutate: func(c *Config) { c.FaultPlan = "remote.segment:rate=1" }},
		{name: "hardened-quarantine", n: 4, quarantined: 4,
			mutate: func(c *Config) { c.Quarantine = true }},
	}
	type counters struct {
		segHits, allocs, frees, queued, drained uint64
		quarantined, settled, checks            uint64
		live                                    int64
	}
	run := func(t *testing.T, mutate func(*Config), remote, batch bool, n int) (map[trace.Kind]int, counters) {
		t.Helper()
		g, owner := testHeap(t, func(c *Config) {
			c.TraceEnabled = true
			c.TraceSampleRate = 1
			if mutate != nil {
				mutate(c)
			}
		})
		freer := owner
		if remote {
			freer = NewThreadHeap(g, 2)
		}
		const size = 64
		var addrs []uint64
		if batch {
			sizes := make([]int, n)
			for i := range sizes {
				sizes[i] = size
			}
			var err error
			if addrs, err = owner.MallocBatch(sizes, nil); err != nil {
				t.Fatal(err)
			}
			if err := freer.FreeBatch(addrs); err != nil {
				t.Fatal(err)
			}
		} else {
			for i := 0; i < n; i++ {
				a, err := owner.Malloc(size)
				if err != nil {
					t.Fatal(err)
				}
				addrs = append(addrs, a)
			}
			for _, a := range addrs {
				if err := freer.Free(a); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, th := range []*ThreadHeap{owner, freer} {
			if err := th.Done(); err != nil {
				t.Fatal(err)
			}
		}
		if err := g.CheckIntegrity(); err != nil {
			t.Fatal(err)
		}
		class, _ := owner.AllocClass(size)
		events := map[trace.Kind]int{}
		for _, e := range g.Tracer().Snapshot().Events {
			events[e.Kind]++
			if (e.Kind == trace.EvAlloc || e.Kind == trace.EvFree) && e.B != uint64(sizeclass.Size(class)) {
				t.Errorf("%v event carries B=%d, want the object size %d", e.Kind, e.B, sizeclass.Size(class))
			}
		}
		st := g.Stats()
		return events, counters{
			segHits:     g.Faults().SiteHits(faultinject.SiteRemoteSegment),
			allocs:      st.Allocs,
			frees:       st.Frees,
			queued:      st.Remote.Queued,
			drained:     st.Remote.Drained,
			quarantined: st.Harden.Quarantined,
			settled:     st.Harden.Settled,
			checks:      st.Harden.Checks,
			live:        st.Live,
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sEvents, sCount := run(t, tc.mutate, tc.remote, false, tc.n)
			bEvents, bCount := run(t, tc.mutate, tc.remote, true, tc.n)
			if sEvents[trace.EvAlloc] != tc.n || sCount.queued != tc.queued ||
				sCount.segHits != tc.segHits || sCount.quarantined != tc.quarantined {
				t.Fatalf("scalar run: %d allocs traced, %+v; want %d allocs, queued %d, segment hits %d, quarantined %d",
					sEvents[trace.EvAlloc], sCount, tc.n, tc.queued, tc.segHits, tc.quarantined)
			}
			if !maps.Equal(sEvents, bEvents) {
				t.Errorf("trace events differ:\nscalar %v\nbatch  %v", sEvents, bEvents)
			}
			if sCount != bCount {
				t.Errorf("counters differ:\nscalar %+v\nbatch  %+v", sCount, bCount)
			}
		})
	}
}
