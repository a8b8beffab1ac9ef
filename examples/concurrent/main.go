// concurrent: the goroutine-safe allocator API under server-shaped load.
//
// Twelve goroutines hammer one shared Allocator with no synchronization of
// their own — scalar and batched malloc/free, cross-goroutine frees, and
// runtime re-tuning through the mallctl-style Control surface while
// traffic is in flight. At the end the cached heaps are flushed, a final
// compaction pass runs, and the heap is integrity-checked.
//
// Run with: go run ./examples/concurrent
package main

import (
	"fmt"
	"log"
	"sync"

	"repro/mesh"
)

const (
	workers      = 12
	opsPerWorker = 20000
	batchSize    = 32
)

func main() {
	a := mesh.New(mesh.WithSeed(7))

	// Tune the allocator at runtime: mesh aggressively (no productivity
	// threshold), and cap resident memory at 64 MiB like a container.
	for key, val := range map[string]any{
		"mesh.min_savings": 0,
		"os.memory_limit":  int64(64 << 20),
	} {
		if err := a.Control(key, val); err != nil {
			log.Fatal(err)
		}
	}

	// A shared channel of pointers makes goroutines free each other's
	// objects — the cross-thread free pattern of a real server.
	handoff := make(chan mesh.Ptr, 1024)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sizes := make([]int, batchSize)
			for i := range sizes {
				sizes[i] = 16 << ((w + i) % 5) // 16..256 bytes
			}
			for done := 0; done < opsPerWorker; done += batchSize {
				ptrs, err := a.MallocBatch(sizes)
				if err != nil {
					log.Fatalf("worker %d: %v", w, err)
				}
				// Keep one object in flight through the hand-off channel,
				// free the rest of the batch immediately.
				select {
				case handoff <- ptrs[0]:
					ptrs = ptrs[1:]
				default:
				}
				select {
				case p := <-handoff:
					ptrs = append(ptrs, p)
				default:
				}
				if err := a.FreeBatch(ptrs); err != nil {
					log.Fatalf("worker %d: %v", w, err)
				}
			}
		}(w)
	}
	wg.Wait()
	close(handoff)
	for p := range handoff {
		if err := a.Free(p); err != nil {
			log.Fatal(err)
		}
	}

	// Quiesce: relinquish cached heaps, compact, verify.
	if err := a.Flush(); err != nil {
		log.Fatal(err)
	}
	released := a.Mesh()
	if err := a.CheckIntegrity(); err != nil {
		log.Fatal(err)
	}

	st := a.Stats()
	created, _ := a.ReadControl("pool.created")
	fmt.Printf("%d goroutines x %d ops on one shared allocator\n", workers, opsPerWorker)
	fmt.Printf("allocs %d, frees %d, live %d B, invalid frees %d\n",
		st.Allocs, st.Frees, st.Live, st.InvalidFree)
	fmt.Printf("cached thread heaps created: %v (bounded by concurrency, not by call count)\n", created)
	fmt.Printf("final mesh released %d spans; RSS %.1f KiB, mesh passes %d\n",
		released, float64(st.RSS)/1024, st.Mesh.Passes)
}
