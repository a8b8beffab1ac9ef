package main

import (
	"encoding/binary"
	"errors"
	"math/rand/v2"

	"repro/mesh"
)

// churn sends bursty requests: each allocates a burst of mixed
// small objects with scalar calls and frees the burst from churnWindow
// requests earlier. Nothing is written during the timed phase, so the
// scalar malloc/free path carries the whole load.
const (
	churnResident = 400_000 // long-lived objects allocated at setup
	churnBurst    = 64      // objects per request
	churnWindow   = 64      // requests a burst stays live
	churnBatch    = 256     // objects per MallocBatch during prefill
)

// churnSizes is a synthetic size mix, not taken from a trace. Drawn
// uniformly, it spreads the load over 11 of the 20 size classes up to
// 1 KiB, so the scalar path works on many classes' bins and magazines at
// once, and weights it toward objects of 128 B and less. 24 B is not a
// class size, so some requests round up.
var churnSizes = [...]int{16, 16, 24, 32, 32, 48, 64, 64, 64, 96, 128, 128, 192, 256, 384, 512, 1024}

type churnState struct {
	rnd      *rand.Rand
	requests int
	resident []mesh.Ptr
	bursts   [churnWindow][churnBurst]mesh.Ptr
	next     int // ring slot of the oldest burst
}

func newChurn(seed uint64, requests int) *churnState {
	return &churnState{rnd: rand.New(rand.NewPCG(seed, 0x636875726e)), requests: requests}
}

func (s *churnState) size() int { return churnSizes[s.rnd.IntN(len(churnSizes))] }

// prefill allocates the resident set in batches, then a window of bursts.
func (s *churnState) prefill(c *client) error {
	sizes := make([]int, churnBatch)
	for len(s.resident) < churnResident {
		for i := range sizes {
			sizes[i] = s.size()
		}
		ps, err := c.mallocBatch(sizes)
		if err != nil {
			return err
		}
		s.resident = append(s.resident, ps...)
	}
	for range churnWindow {
		if !s.burst(c) {
			return errors.New("burst failed")
		}
	}
	return nil
}

// burst allocates a fresh burst into the oldest ring slot, freeing the
// burst that held it unless the slot is still empty.
func (s *churnState) burst(c *client) bool {
	ok := true
	slot := &s.bursts[s.next]
	for i, p := range slot {
		if p != 0 && c.free(p) != nil {
			ok = false
		}
		q, err := c.malloc(s.size())
		if err != nil || q == 0 {
			ok = false
		}
		slot[i] = q
	}
	s.next = (s.next + 1) % churnWindow
	return ok
}

func (s *churnState) run(c *client, rec *recorder) {
	for range s.requests {
		q := rec.begin()
		ok := s.burst(c)
		rec.done(q, ok)
	}
}

// verify stamps every live burst object with its ordinal and reads the
// stamps back: two live objects sharing memory would lose a stamp.
func (s *churnState) verify(c *client) bool {
	var b [8]byte
	ok := true
	for i, slot := range s.bursts {
		for j, p := range slot {
			binary.LittleEndian.PutUint64(b[:], uint64(i*churnBurst+j))
			ok = c.write(p, b[:]) == nil && ok
		}
	}
	for i, slot := range s.bursts {
		for j, p := range slot {
			ok = c.read(p, b[:]) == nil && binary.LittleEndian.Uint64(b[:]) == uint64(i*churnBurst+j) && ok
		}
	}
	return ok
}

func (s *churnState) liveObjects() int64 {
	return int64(len(s.resident) + churnWindow*churnBurst)
}
