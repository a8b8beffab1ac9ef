package experiments

import (
	"fmt"
	"time"

	"repro/internal/alloc"
	"repro/internal/workload"
	"repro/mesh"
)

// FrontendRow is one (goroutine count, mode) cell of the front-end
// experiment.
type FrontendRow struct {
	Workers       int           `json:"workers"`
	Mode          string        `json:"mode"`
	Ops           int           `json:"ops"`
	Wall          time.Duration `json:"wall_ns"`
	OpsPerSec     float64       `json:"ops_per_sec"`
	ShardAcquires uint64        `json:"shard_acquires"`
	PoolBorrows   uint64        `json:"pool_borrows"`
	FrontendHits  uint64        `json:"frontend_hits"`
}

// FrontendResult reports scalar throughput with the per-stripe front end
// and magazines against the explicit batch API, the ceiling scalar
// traffic is chasing.
type FrontendResult struct {
	TotalOps int           `json:"total_ops"`
	Rows     []FrontendRow `json:"rows"`
}

// frontendModes configures one allocator per mode. "scalar" is the
// default front end with magazines on: every Malloc is a stripe swap plus
// a magazine pop, refilled in half-capacity batches. "batch" drives the
// explicit batch-64 API through the same front end — the amortization
// ceiling.
var frontendModes = []struct {
	name  string
	batch int
	opts  []mesh.Option
}{
	{"scalar", 1, []mesh.Option{mesh.WithSeed(1), mesh.WithMagazineObjects(64)}},
	{"batch", 64, []mesh.Option{mesh.WithSeed(1), mesh.WithMagazineObjects(64)}},
}

// Frontend measures what the per-stripe front end buys the scalar path.
// Both modes run the same mixed-size workload over one shared allocator
// at 1, 8, and 16 goroutines with a fixed total operation count, so rows
// are directly comparable. The pool-borrow (stripe-miss) and
// frontend-hit counters make the hand-off traffic visible: the front end
// should hold borrows near the stripe count regardless of operation
// volume. After every run
// the heap must flush magazines and stripes back, pass an integrity
// check, and drain to zero live bytes — the front end is only a cache,
// never a leak.
func Frontend(scale int) (*FrontendResult, error) {
	if scale < 1 {
		scale = 1
	}
	totalOps := 320_000 / scale
	if totalOps < 8_000 {
		totalOps = 8_000
	}
	res := &FrontendResult{TotalOps: totalOps}
	for _, workers := range []int{1, 8, 16} {
		for _, mode := range frontendModes {
			ad := mesh.NewAdapter("mesh", mode.opts...)
			cfg := workload.ConcurrentConfig{
				Workers: workers,
				Ops:     totalOps / workers,
				Batch:   mode.batch,
				MaxLive: 4096,
				Sizes: workload.Choice{
					Sizes:   []int{16, 64, 256, 1024, 2048},
					Weights: []float64{4, 3, 2, 1, 0.5},
				},
				Seed: 1,
			}
			newHeap := func(int) alloc.Heap { return ad.Allocator }
			r, err := workload.RunConcurrent(ad, newHeap, cfg)
			if err != nil {
				return nil, fmt.Errorf("frontend %d/%s: %w", workers, mode.name, err)
			}
			// Snapshot the hand-off counters before the drain: Flush
			// retires every cached front (a return, not workload traffic)
			// and CheckIntegrity acquires all shards.
			shard, err := ad.ReadControl("stats.global.shard_acquires")
			if err != nil {
				return nil, err
			}
			borrows, err := ad.ReadControl("stats.pool.borrows")
			if err != nil {
				return nil, err
			}
			hits, err := ad.ReadControl("stats.frontend.hits")
			if err != nil {
				return nil, err
			}
			if err := ad.Allocator.Flush(); err != nil {
				return nil, fmt.Errorf("frontend %d/%s: flush: %w", workers, mode.name, err)
			}
			if err := ad.Allocator.CheckIntegrity(); err != nil {
				return nil, fmt.Errorf("frontend %d/%s: integrity after run: %w", workers, mode.name, err)
			}
			if live := ad.Live(); live != 0 {
				return nil, fmt.Errorf("frontend %d/%s: %d live bytes after full drain", workers, mode.name, live)
			}
			res.Rows = append(res.Rows, FrontendRow{
				Workers:       workers,
				Mode:          mode.name,
				Ops:           r.Ops,
				Wall:          r.Wall,
				OpsPerSec:     r.OpsPerSec,
				ShardAcquires: shard.(uint64),
				PoolBorrows:   borrows.(uint64),
				FrontendHits:  hits.(uint64),
			})
		}
	}
	return res, nil
}
