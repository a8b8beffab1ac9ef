package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
)

func TestMain(m *testing.M) {
	if err := keepStacks(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// small returns the named workload with fewer requests per round.
func small(t *testing.T, name string, requests int) *workload {
	t.Helper()
	w := findWorkload(name)
	if w == nil {
		t.Fatalf("no workload %q", name)
	}
	c := *w
	c.requests = requests
	c.rssEvery = max(1, requests/50)
	return &c
}

// memory is what must depend only on the seed, besides the RSS series:
// the quiescent RSS and live bytes, and the meshing counters.
type memory struct {
	final, live                  int64
	frag                         float64
	passes, spans, freed, copied uint64
}

func memoryOf(r *roundResult) memory {
	m := r.after.st.Mesh
	return memory{
		final: r.rssFinal, live: r.live, frag: float64(r.rssFinal) / float64(r.live),
		passes: m.Passes, spans: m.SpansMeshed, freed: m.BytesFreed, copied: m.BytesCopied,
	}
}

func runOK(t *testing.T, w *workload, seed uint64) *roundResult {
	t.Helper()
	r, err := runRound(w, seed, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.badChecks) > 0 || r.failed > 0 {
		t.Fatalf("%s seed %d: failed %d, checks %v", w.name, seed, r.failed, r.badChecks)
	}
	return r
}

func TestMemoryDependsOnlyOnSeed(t *testing.T) {
	for _, tc := range []struct {
		name     string
		requests int
	}{{"kv-lru", kvRequests}, {"churn", 5000}} {
		t.Run(tc.name, func(t *testing.T) {
			w := small(t, tc.name, tc.requests)
			ra, rb := runOK(t, w, 42), runOK(t, w, 42)
			if !slices.Equal(ra.rss, rb.rss) {
				t.Errorf("RSS series differ between runs of one seed")
			}
			if a, b := memoryOf(ra), memoryOf(rb); a != b {
				t.Errorf("memory figures differ between runs of one seed:\n%+v\n%+v", a, b)
			}
			if tc.name == "kv-lru" && memoryOf(ra).spans == 0 {
				t.Errorf("kv-lru meshed no spans; the determinism check would be vacuous")
			}
		})
	}
}

func TestSeedChangesInputs(t *testing.T) {
	if bytes.Equal(newKV(1, 0).pattern, newKV(2, 0).pattern) {
		t.Error("kv-lru: seeds 1 and 2 give the same values")
	}
	draw := func(f func() int) []int {
		xs := make([]int, 256)
		for i := range xs {
			xs[i] = f()
		}
		return xs
	}
	c1, c2 := newChurn(1, 0), newChurn(2, 0)
	if slices.Equal(draw(c1.size), draw(c2.size)) {
		t.Error("churn: seeds 1 and 2 give the same sizes")
	}
	p1, p2 := newPipeline(1, 0), newPipeline(2, 0)
	p1.nextSizes()
	p2.nextSizes()
	if slices.Equal(p1.sizes, p2.sizes) {
		t.Error("pipeline: seeds 1 and 2 give the same sizes")
	}
}

// TestChecksCatchCorruption damages one live object after a round and
// expects the workload's own verification to notice.
func TestChecksCatchCorruption(t *testing.T) {
	for _, name := range []string{"kv-lru", "churn", "pipeline"} {
		t.Run(name, func(t *testing.T) {
			w := small(t, name, 200)
			w.newState = func(seed uint64, n int) state {
				return corrupting{findWorkload(name).newState(seed, n)}
			}
			r, err := runRound(w, 7, false)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Contains(r.badChecks, "contents") || r.failed != r.requests {
				t.Fatalf("corruption not caught: checks %v, failed %d of %d", r.badChecks, r.failed, r.requests)
			}
		})
	}
}

// corrupting wraps a state, damaging one object before verification.
type corrupting struct{ state }

func (s corrupting) verify(c *client) bool {
	var err error
	switch st := s.state.(type) {
	case *kvState:
		err = c.write(st.entries[0].val, make([]byte, 16))
	case *churnState:
		// Hand one object out twice, as a broken allocator would.
		st.bursts[0][1] = st.bursts[0][0]
	case *pipeState:
		err = c.write(st.window[0].p, make([]byte, 16))
	default:
		err = fmt.Errorf("unknown state %T", st)
	}
	if err != nil {
		panic(err)
	}
	return s.state.verify(c)
}

func TestRunPrintsMetrics(t *testing.T) {
	for _, tc := range []struct {
		trace bool
		want  []string
	}{
		{false, []string{"setup_s", "throughput_ops_s", "op_p50_us", "op_p99_us", "rss_mean_mib",
			"rss_peak_mib", "rss_final_mib", "frag_ratio", "success_rate"}},
		{true, []string{"mesh.malloc_ns", "frontend.hit_ratio", "core.remote_backlog",
			"meshing.freed_per_copied", "vm.retries_per_mtrans", "trace.overhead",
			"wall.op_p99_us", "wait.mutex_us_per_req"}},
	} {
		var out strings.Builder
		if err := bench(small(t, "churn", 500), 1, 0, tc.trace, &out); err != nil {
			t.Fatalf("trace %v: %v", tc.trace, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %v: last line is not the result: %v", tc.trace, err)
		}
		if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
			t.Errorf("trace %v: result %+v", tc.trace, res)
		}
		for _, k := range tc.want {
			if _, ok := res.Metrics[k]; !ok {
				t.Errorf("trace %v: metric %s missing", tc.trace, k)
			}
		}
	}
}
