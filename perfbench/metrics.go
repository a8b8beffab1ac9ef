package main

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"time"
)

const mib = 1 << 20

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// perRound collects f over rounds.
func perRound(rounds []*roundResult, f func(*roundResult) float64) []float64 {
	xs := make([]float64, len(rounds))
	for i, r := range rounds {
		xs[i] = f(r)
	}
	return xs
}

// pick returns the rounds that were, or were not, traced.
func pick(rounds []*roundResult, traced bool) []*roundResult {
	var out []*roundResult
	for _, r := range rounds {
		if r.traced == traced {
			out = append(out, r)
		}
	}
	return out
}

// tally counts attempted and failed requests over every round; a run is
// correct when nothing failed.
func tally(rounds []*roundResult) result {
	var res result
	for _, r := range rounds {
		res.Attempted += r.requests
		res.Failed += min(r.failed, r.requests)
	}
	res.Correct = res.Failed == 0
	res.Metrics = map[string]metric{}
	return res
}

func throughput(rounds []*roundResult) float64 {
	var n int
	var d time.Duration
	for _, r := range rounds {
		n += r.requests
		d += r.timed
	}
	return float64(n) / d.Seconds()
}

// percentile returns the p-quantile of lat in microseconds, sorting lat.
func percentile(lat []time.Duration, p float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	slices.Sort(lat)
	return float64(lat[min(len(lat)-1, int(p*float64(len(lat))))]) / 1e3
}

// endToEnd computes the user-visible metrics from untraced rounds.
// Throughput and p50 pool every round's requests, so a run that spans
// faster and slower spells of a shared host reads their mix rather than
// whichever spell held most rounds. p99 is the median of the rounds' p99s,
// so a round hit by a burst of host stalls does not set it. Set-up and
// memory figures are medians over rounds; the memory figures are the same
// in every round of a single-goroutine workload, because rounds replay
// identical inputs.
func endToEnd(rounds []*roundResult) result {
	res := tally(rounds)
	med := func(f func(*roundResult) float64) float64 { return median(perRound(rounds, f)) }
	var lat []time.Duration
	for _, r := range rounds {
		lat = append(lat, r.lat...)
	}
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	set("setup_s", "s", med(func(r *roundResult) float64 { return r.setup.Seconds() }))
	set("throughput_ops_s", "req/s", throughput(rounds))
	set("op_p50_us", "us", percentile(lat, 0.50))
	set("op_p99_us", "us", med(func(r *roundResult) float64 { return percentile(r.lat, 0.99) }))
	set("rss_mean_mib", "MiB", med(func(r *roundResult) float64 { return mean(r.rss) / mib }))
	set("rss_peak_mib", "MiB", med(func(r *roundResult) float64 { return float64(slices.Max(r.rss)) / mib }))
	set("rss_final_mib", "MiB", med(func(r *roundResult) float64 { return float64(r.rssFinal) / mib }))
	set("frag_ratio", "ratio", med(func(r *roundResult) float64 { return float64(r.rssFinal) / float64(max(r.live, 1)) }))
	set("success_rate", "ratio", float64(res.Attempted-res.Failed)/float64(res.Attempted))
	return res
}

func mean(xs []int64) float64 {
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(max(len(xs), 1))
}

// layerTotals sums the traced rounds' spans and timed-phase counter deltas.
type layerTotals struct {
	agg      [numLayers]layerAgg
	requests float64
	rounds   float64
	d        struct {
		hits, misses, borrows, acquires                 float64
		queued, passes, spans, freed, copied            float64
		translations, retries, faults, commits, gcCycle float64
	}
}

func sumLayers(rounds []*roundResult) *layerTotals {
	t := &layerTotals{rounds: float64(len(rounds))}
	for _, r := range rounds {
		for _, l := range r.logs {
			for i := range l.agg {
				a, b := &t.agg[i], l.agg[i]
				a.count += b.count
				a.objs += b.objs
				a.total += b.total
				a.self += b.self
			}
		}
		t.requests += float64(r.requests)
		b, a := r.before, r.after
		d := &t.d
		d.hits += float64(a.hits - b.hits)
		d.misses += float64(a.misses - b.misses)
		d.borrows += float64(a.borrows - b.borrows)
		d.acquires += float64(a.acquires - b.acquires)
		d.queued += float64(a.st.Remote.Queued - b.st.Remote.Queued)
		d.passes += float64(a.st.Mesh.Passes - b.st.Mesh.Passes)
		d.spans += float64(a.st.Mesh.SpansMeshed - b.st.Mesh.SpansMeshed)
		d.freed += float64(a.st.Mesh.BytesFreed - b.st.Mesh.BytesFreed)
		d.copied += float64(a.st.Mesh.BytesCopied - b.st.Mesh.BytesCopied)
		d.translations += float64(a.st.VM.Translations - b.st.VM.Translations)
		d.retries += float64(a.st.VM.Retries - b.st.VM.Retries)
		d.faults += float64(a.st.VM.Faults - b.st.VM.Faults)
		d.commits += float64(a.st.VM.Commits - b.st.VM.Commits)
		d.gcCycle += float64(r.gcCycles)
	}
	return t
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (t *layerTotals) meanNs(ls ...layer) float64 {
	var total time.Duration
	var n int64
	for _, l := range ls {
		total += t.agg[l].total
		n += t.agg[l].count
	}
	return ratio(float64(total), float64(n))
}

// layerMetrics computes the per-layer metrics of a traced run: wall time
// around public calls over whole traced rounds, counter deltas over their
// timed phases, and the tracing overhead against the untraced rounds.
// The untraced rounds also give the wall-clock and lock-wait figures.
func layerMetrics(rounds []*roundResult) result {
	traced, untraced := pick(rounds, true), pick(rounds, false)
	res := tally(rounds)
	t := sumLayers(traced)
	d := &t.d
	perKop := func(x float64) float64 { return ratio(x*1000, t.requests) }
	perRnd := func(x float64) float64 { return ratio(x, t.rounds) }
	batchNs := float64(t.agg[layMallocBatch].total + t.agg[layFreeBatch].total)
	batchObjs := float64(t.agg[layMallocBatch].objs + t.agg[layFreeBatch].objs)
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	set("mesh.malloc_ns", "ns", t.meanNs(layMalloc))
	set("mesh.free_ns", "ns", t.meanNs(layFree))
	set("mesh.batch_ns_per_obj", "ns/obj", ratio(batchNs, batchObjs))
	set("mesh.pool_borrows_per_kop", "1/kreq", perKop(d.borrows))
	set("frontend.hit_ratio", "ratio", ratio(d.hits, d.hits+d.misses))
	set("core.shard_acquires_per_kop", "1/kreq", perKop(d.acquires))
	set("core.remote_queued_per_kop", "1/kreq", perKop(d.queued))
	set("core.remote_backlog", "count", median(perRound(traced, func(r *roundResult) float64 { return float64(r.backlog) })))
	set("meshing.passes", "count", perRnd(d.passes))
	set("meshing.spans_meshed", "count", perRnd(d.spans))
	set("meshing.bytes_freed_mib", "MiB", perRnd(d.freed)/mib)
	set("meshing.freed_per_copied", "ratio", ratio(d.freed, d.copied))
	set("meshing.mesh_call_ms", "ms", t.meanNs(layMesh)/1e6)
	set("vm.write_ns", "ns", t.meanNs(layWrite))
	set("vm.read_ns", "ns", t.meanNs(layRead))
	set("vm.translations_per_kop", "1/kreq", perKop(d.translations))
	set("vm.retries_per_mtrans", "1/Mtrans", ratio(d.retries*1e6, d.translations))
	set("vm.faults", "count", perRnd(d.faults))
	set("vm.commits_per_kop", "1/kreq", perKop(d.commits))
	set("go.gc_cycles", "count", perRnd(d.gcCycle))
	set("trace.overhead", "ratio", ratio(throughput(traced), throughput(untraced)))
	// What the CPU clocks leave out, from the untraced rounds: request
	// latency and throughput on the wall clock, and the time goroutines
	// spent parked on mutexes (shard locks, the mesh write barrier).
	var reqs float64
	var wall, wait time.Duration
	for _, r := range untraced {
		reqs += float64(r.requests)
		wall += r.wall
		wait += r.mutexWait
	}
	set("wall.throughput_ops_s", "req/s", ratio(reqs, wall.Seconds()))
	set("wall.op_p99_us", "us", median(perRound(untraced, func(r *roundResult) float64 { return percentile(r.wallLat, 0.99) })))
	set("wait.mutex_us_per_req", "us/req", ratio(float64(wait)/1e3, reqs))
	return res
}

// printReport writes the per-round lines and, for a traced run, the
// per-layer self-time table.
func printReport(w io.Writer, wl *workload, seed uint64, rounds []*roundResult, res result) {
	fmt.Fprintf(w, "perfbench %s seed=%d rounds=%d\n", wl.name, seed, len(rounds))
	for i, r := range rounds {
		status := "ok"
		if len(r.badChecks) > 0 {
			status = fmt.Sprintf("FAILED %v", r.badChecks)
		}
		fmt.Fprintf(w, "  round %d traced=%v setup=%.3fs timed=%.3fs cpu=%.3fs requests=%d failed=%d req/s=%.0f p50=%.1fus p99=%.1fus wall_p99=%.1fus mutex_wait=%.1fms rss_peak=%.3fMiB rss_final=%.3fMiB checks=%s\n",
			i, r.traced, r.setup.Seconds(), r.wall.Seconds(), r.timed.Seconds(), r.requests, r.failed,
			float64(r.requests)/r.timed.Seconds(), percentile(r.lat, 0.5), percentile(r.lat, 0.99),
			percentile(r.wallLat, 0.99), float64(r.mutexWait)/1e6, float64(slices.Max(r.rss))/mib, float64(r.rssFinal)/mib, status)
	}
	var samples int
	for _, r := range pick(rounds, false) {
		samples += len(r.lat)
	}
	fmt.Fprintf(w, "  latency samples=%d in untraced rounds\n", samples)
	if traced := pick(rounds, true); len(traced) > 0 {
		t := sumLayers(traced)
		fmt.Fprintf(w, "  %-18s %10s %12s %12s %10s\n", "layer", "calls", "total_ms", "self_ms", "mean_ns")
		for l := range numLayers {
			a := t.agg[l]
			fmt.Fprintf(w, "  %-18s %10d %12.3f %12.3f %10.1f\n", layerNames[l], a.count,
				float64(a.total)/1e6, float64(a.self)/1e6, ratio(float64(a.total), float64(a.count)))
		}
		fmt.Fprintf(w, "  go gc cycles in traced timed phases=%.0f  tracing overhead (traced/untraced throughput)=%.3f\n",
			t.d.gcCycle, res.Metrics["trace.overhead"].Value)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := res.Metrics[k]
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", k, m.Value, m.Unit)
	}
}
