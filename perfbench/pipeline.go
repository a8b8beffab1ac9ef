package main

import (
	"encoding/binary"
	"errors"
	"math/rand/v2"
	"sync"

	"repro/mesh"
)

// pipeline runs a producer and a consumer goroutine over a background-
// meshed heap. The producer allocates batches and writes every object; the
// consumer holds a delay window of objects and frees random batches of it
// from its own goroutine, so every free is remote.
const (
	pipeBatch  = 64      // objects per producer request and per consumer free
	pipeWindow = 200_000 // objects the consumer holds before freeing
	// pipeQueue bounds the batches in flight between the goroutines; the
	// producer blocks once the consumer falls this far behind.
	pipeQueue = 16
)

// pipeSizes is a synthetic size mix, not taken from a trace: 12 class
// sizes from 32 to 512 B, drawn uniformly, so the window's live objects
// fill spans of many classes and the daemon finds meshing candidates in
// each.
var pipeSizes = [...]int{32, 48, 64, 80, 96, 128, 160, 192, 256, 320, 384, 512}

// pipeObj is one live object and the stamp written into it.
type pipeObj struct {
	p     mesh.Ptr
	size  int32
	stamp uint64
}

type pipeState struct {
	seed     uint64
	rnd      *rand.Rand // producer's stream
	requests int
	stamp    uint64
	window   []pipeObj // owned by the consumer while run is active
	bad      int       // failed checks and frees, written by the consumer
	sizes    []int
	buf      []byte
}

func newPipeline(seed uint64, requests int) *pipeState {
	return &pipeState{
		seed:     seed,
		rnd:      rand.New(rand.NewPCG(seed, 0x70697065)),
		requests: requests,
		sizes:    make([]int, pipeBatch),
		buf:      make([]byte, pipeSizes[len(pipeSizes)-1]),
	}
}

// fill writes stamp into buf[:n]: the stamp at both ends, a byte pattern
// derived from it between.
func fill(buf []byte, stamp uint64, n int) []byte {
	b := buf[:n]
	for i := 8; i < n-8; i++ {
		b[i] = byte(stamp) + byte(i)
	}
	binary.LittleEndian.PutUint64(b, stamp)
	binary.LittleEndian.PutUint64(b[n-8:], ^stamp)
	return b
}

// check reads o back and reports whether it still holds its stamp.
func check(c *client, o pipeObj, buf []byte) bool {
	b := buf[:o.size]
	if c.read(o.p, b) != nil {
		return false
	}
	n := len(b)
	if binary.LittleEndian.Uint64(b) != o.stamp || binary.LittleEndian.Uint64(b[n-8:]) != ^o.stamp {
		return false
	}
	for i := 8; i < n-8; i++ {
		if b[i] != byte(o.stamp)+byte(i) {
			return false
		}
	}
	return true
}

// nextSizes draws the sizes of the next batch into s.sizes.
func (s *pipeState) nextSizes() {
	for i := range s.sizes {
		s.sizes[i] = pipeSizes[s.rnd.IntN(len(pipeSizes))]
	}
}

// produce allocates one batch and writes every object.
func (s *pipeState) produce(c *client) ([]pipeObj, bool) {
	s.nextSizes()
	ps, err := c.mallocBatch(s.sizes)
	if err != nil {
		return nil, false
	}
	objs := make([]pipeObj, len(ps))
	ok := true
	for i, p := range ps {
		s.stamp++
		objs[i] = pipeObj{p: p, size: int32(s.sizes[i]), stamp: s.stamp}
		if c.write(p, fill(s.buf, s.stamp, s.sizes[i])) != nil {
			ok = false
		}
	}
	return objs, ok
}

// prefill fills the consumer's window before the timed phase.
func (s *pipeState) prefill(c *client) error {
	s.window = make([]pipeObj, 0, pipeWindow+pipeQueue*pipeBatch)
	for len(s.window) < pipeWindow {
		objs, ok := s.produce(c)
		if !ok {
			return errors.New("produce failed")
		}
		s.window = append(s.window, objs...)
	}
	return nil
}

func (s *pipeState) run(c *client, rec *recorder) {
	ch := make(chan []pipeObj, pipeQueue)
	cc := c.fork()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		growStack()
		s.consume(cc, ch)
	}()
	for range s.requests {
		q := rec.begin()
		objs, ok := s.produce(c)
		rec.done(q, ok)
		ch <- objs
	}
	close(ch)
	wg.Wait()
	rec.failed += s.bad
}

// consume adds each batch to the window, then frees a random batch of
// the window once it is over pipeWindow, checking every stamp first.
func (s *pipeState) consume(c *client, ch <-chan []pipeObj) {
	rnd := rand.New(rand.NewPCG(s.seed, 0x636f6e73))
	buf := make([]byte, len(s.buf))
	victims := make([]mesh.Ptr, 0, pipeBatch)
	for objs := range ch {
		s.window = append(s.window, objs...)
		for len(s.window) >= pipeWindow+pipeBatch {
			victims = victims[:0]
			for range pipeBatch {
				i := rnd.IntN(len(s.window))
				o := s.window[i]
				if !check(c, o, buf) {
					s.bad++
				}
				victims = append(victims, o.p)
				s.window[i] = s.window[len(s.window)-1]
				s.window = s.window[:len(s.window)-1]
			}
			if c.freeBatch(victims) != nil {
				s.bad++
			}
		}
	}
}

func (s *pipeState) verify(c *client) bool {
	ok := true
	for _, o := range s.window {
		ok = check(c, o, s.buf) && ok
	}
	return ok
}

func (s *pipeState) liveObjects() int64 { return int64(len(s.window)) }
