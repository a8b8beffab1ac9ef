// Command perfbench is the end-to-end benchmark of the mesh allocator. It
// drives only the public mesh API, in rounds: each round builds a fresh
// allocator from the seed, prefills the workload's starting heap (setup),
// runs a fixed number of requests (the timed phase), quiesces with Flush
// and Mesh, and checks the heap. Rounds repeat until --seconds have
// passed. Because every round replays the same seeded inputs against a
// LogicalClock, the memory metrics depend only on the seed.
//
// Usage:
//
//	perfbench --workload kv-lru --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line of output is a JSON object holding the
// end-to-end metrics; with --trace 1 rounds alternate untraced and traced,
// each traced call becomes a span, and the JSON holds the per-layer
// metrics. A report for people precedes the JSON line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"syscall"
	"time"
)

var workloads = []*workload{
	{
		name: "kv-lru", requests: kvRequests, rssEvery: 50, tick: 250 * time.Microsecond,
		newState: func(seed uint64, n int) state { return newKV(seed, n) },
	},
	{
		name: "churn", requests: 50_000, rssEvery: 250, tick: 100 * time.Microsecond,
		newState: func(seed uint64, n int) state { return newChurn(seed, n) },
	},
	{
		// A 1 ms tick lets the daemon mesh every 100 requests, so
		// background passes run throughout the timed phase.
		name: "pipeline", requests: 15_000, rssEvery: 100, tick: time.Millisecond, background: true,
		newState: func(seed uint64, n int) state { return newPipeline(seed, n) },
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// minRounds is the fewest rounds of each kind a run makes, so setup_s is
// a median of several set-ups.
const minRounds = 3

func main() {
	if err := keepStacks(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// noShrink is the runtime setting that stops the GC from shrinking, and so
// moving, goroutine stacks. See goFresh for why stacks must stay put.
const noShrink = "gcshrinkstackoff=1"

// keepStacks re-executes the program with stack shrinking off, unless it
// already is. The runtime reads the setting only at start-up.
func keepStacks() error {
	godebug := os.Getenv("GODEBUG")
	if strings.Contains(godebug, noShrink) {
		return nil
	}
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("re-exec with %s: %w", noShrink, err)
	}
	if godebug != "" {
		godebug += ","
	}
	if err := os.Setenv("GODEBUG", godebug+noShrink); err != nil {
		return fmt.Errorf("re-exec with %s: %w", noShrink, err)
	}
	return fmt.Errorf("re-exec with %s: %w", noShrink, syscall.Exec(exe, os.Args, os.Environ()))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "kv-lru", "workload: kv-lru, churn or pipeline")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measuring time")
	trace := fs.Int("trace", 0, "1 for a traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	if w == nil || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad --workload %q or --trace %d\n", *name, *trace)
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	if err := bench(w, *seed, budget, *trace == 1, stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// bench runs workload w for budget and prints the report, then the result
// line: end-to-end metrics, or per-layer ones for a traced run.
func bench(w *workload, seed uint64, budget time.Duration, trace bool, stdout io.Writer) error {
	rounds, err := runRounds(w, seed, budget, trace)
	if err != nil {
		return err
	}
	out := endToEnd(rounds)
	if trace {
		out = layerMetrics(rounds)
	}
	printReport(stdout, w, seed, rounds, out)
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// runRounds runs rounds until the budget is spent and each kind has run
// minRounds times. A traced run alternates untraced and traced rounds, so
// it can report the tracing overhead.
func runRounds(w *workload, seed uint64, budget time.Duration, trace bool) ([]*roundResult, error) {
	kinds := 1
	if trace {
		kinds = 2
	}
	start := time.Now()
	var rounds []*roundResult
	for i := 0; ; i++ {
		r, err := runRound(w, seed, trace && i%2 == 1)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
		if len(rounds) >= kinds*minRounds && len(rounds)%kinds == 0 && time.Since(start) >= budget {
			return rounds, nil
		}
	}
}
