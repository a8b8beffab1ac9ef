package main

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"

	"repro/mesh"
)

// kv-lru is the paper's Redis experiment (§6.2.2, Fig 7) at half scale,
// with the parameters internal/redissim records: an LRU cache with a
// maxmemory cap takes inserts of new keys with 240-byte values, then
// inserts with 492-byte values, evicting by Redis's sampled LRU. Each
// entry is a key string, a dictEntry + robj header and the value. The
// paper's run is 700,000 inserts under a 100 MB cap, then 170,000; halved,
// the cap is 50 MiB, and the first kvPrefillKeys inserts, which fill the
// cache to its cap, are the setup. The paper's run has no reads; the
// benchmark adds one GET per SET, a choice of its own, so that reads check
// the data that meshing moves and exercise the vm read path.
const (
	kvMaxMemory  = 50 << 20 // cap on summed object sizes
	kvPhase1Keys = 350_000  // inserts of kvSmallValue, setup included
	kvPhase2Keys = 85_000   // inserts of kvLargeValue
	kvKeySize    = 24       // sds key string
	kvMetaSize   = 48       // dictEntry + robj
	kvSmallValue = 240
	kvLargeValue = 492
	kvSamples    = 5    // Redis maxmemory-samples
	kvSets       = 16   // SETs per request
	kvCommands   = 32   // commands per request (one pipelined client batch): SETs and GETs
	kvPrefillRun = 1024 // entries per MallocBatch during prefill

	// kvPrefillKeys is how many small entries fit under the cap.
	kvPrefillKeys = kvMaxMemory / (kvKeySize + kvMetaSize + kvSmallValue)
	// kvPhase1Timed is the phase-1 inserts left for the timed phase.
	kvPhase1Timed = kvPhase1Keys - kvPrefillKeys
	// kvRequests covers every remaining insert of both phases.
	kvRequests = (kvPhase1Timed + kvPhase2Keys + kvSets - 1) / kvSets
)

type kvEntry struct {
	key, meta, val mesh.Ptr
	valSize        int32
	stamp          uint64
	used           uint64 // logical time of last access, for LRU
}

type kvState struct {
	rnd      *rand.Rand
	requests int
	switchAt int // timed inserts before values grow
	entries  []kvEntry
	bytes    int64  // summed object sizes, against kvMaxMemory
	stamp    uint64 // last stamp written
	now      uint64 // command counter, the LRU clock
	pattern  []byte // value filler, from the seed
	buf      []byte
}

func newKV(seed uint64, requests int) *kvState {
	s := &kvState{
		rnd:      rand.New(rand.NewPCG(seed, 0x6b766c7275)),
		requests: requests,
		// The paper's share of phase-1 inserts, also when a test runs
		// fewer requests.
		switchAt: requests * kvSets * kvPhase1Timed / (kvPhase1Timed + kvPhase2Keys),
		pattern:  make([]byte, kvLargeValue),
		buf:      make([]byte, kvLargeValue),
	}
	for i := range s.pattern {
		s.pattern[i] = byte(s.rnd.Uint32())
	}
	return s
}

func entrySize(valSize int) int64 { return int64(kvKeySize + kvMetaSize + valSize) }

// stampValue fills buf[:n] with the value for stamp: the stamp at both
// ends around the seed's filler.
func (s *kvState) stampValue(stamp uint64, n int) []byte {
	b := s.buf[:n]
	copy(b, s.pattern[:n])
	binary.LittleEndian.PutUint64(b, stamp)
	binary.LittleEndian.PutUint64(b[n-8:], ^stamp)
	return b
}

// checkValue reports whether b holds the value for stamp.
func (s *kvState) checkValue(b []byte, stamp uint64) bool {
	n := len(b)
	return binary.LittleEndian.Uint64(b) == stamp &&
		binary.LittleEndian.Uint64(b[n-8:]) == ^stamp &&
		bytes.Equal(b[8:n-8], s.pattern[8:n-8])
}

// prefill fills the cache to its cap with small values, allocating in
// batches as a bulk load would.
func (s *kvState) prefill(c *client) error {
	n := kvPrefillKeys
	s.entries = make([]kvEntry, 0, n)
	sizes := make([]int, 0, 3*kvPrefillRun)
	for len(s.entries) < n {
		k := min(kvPrefillRun, n-len(s.entries))
		sizes = sizes[:0]
		for range k {
			sizes = append(sizes, kvKeySize, kvMetaSize, kvSmallValue)
		}
		ps, err := c.mallocBatch(sizes)
		if err != nil {
			return err
		}
		for i := 0; i < len(ps); i += 3 {
			s.stamp++
			s.now++
			e := kvEntry{key: ps[i], meta: ps[i+1], val: ps[i+2], valSize: kvSmallValue, stamp: s.stamp, used: s.now}
			if err := c.write(e.val, s.stampValue(e.stamp, kvSmallValue)); err != nil {
				return err
			}
			s.entries = append(s.entries, e)
			s.bytes += entrySize(kvSmallValue)
		}
	}
	return nil
}

// run issues the timed requests: kvSets SETs and as many GETs each, in a
// seeded order.
func (s *kvState) run(c *client, rec *recorder) {
	inserts := 0
	for range s.requests {
		q := rec.begin()
		ok := true
		sets, gets := kvSets, kvCommands-kvSets
		for sets+gets > 0 {
			s.now++
			if s.rnd.IntN(sets+gets) >= sets {
				gets--
				ok = s.get(c) && ok
				continue
			}
			sets--
			valSize := kvSmallValue
			if inserts >= s.switchAt {
				valSize = kvLargeValue
			}
			inserts++
			ok = s.set(c, valSize) == nil && ok
		}
		rec.done(q, ok)
	}
}

// set inserts a new key with a fresh value, then evicts down to the cap.
func (s *kvState) set(c *client, valSize int) error {
	var e kvEntry
	var err error
	if e.key, err = c.malloc(kvKeySize); err != nil {
		return err
	}
	if e.meta, err = c.malloc(kvMetaSize); err != nil {
		return err
	}
	if e.val, err = c.malloc(valSize); err != nil {
		return err
	}
	s.stamp++
	e.valSize, e.stamp, e.used = int32(valSize), s.stamp, s.now
	s.entries = append(s.entries, e)
	if err := c.write(e.val, s.stampValue(e.stamp, valSize)); err != nil {
		return err
	}
	s.bytes += entrySize(valSize)
	for s.bytes > kvMaxMemory {
		if err := s.evict(c); err != nil {
			return err
		}
	}
	return nil
}

// evict frees the least recently used of kvSamples random entries.
func (s *kvState) evict(c *client) error {
	best := s.rnd.IntN(len(s.entries))
	for range kvSamples - 1 {
		if i := s.rnd.IntN(len(s.entries)); s.entries[i].used < s.entries[best].used {
			best = i
		}
	}
	e := s.entries[best]
	last := len(s.entries) - 1
	s.entries[best] = s.entries[last]
	s.entries = s.entries[:last]
	s.bytes -= entrySize(int(e.valSize))
	for _, p := range [...]mesh.Ptr{e.key, e.meta, e.val} {
		if err := c.free(p); err != nil {
			return err
		}
	}
	return nil
}

// get reads a random live value and checks its stamp.
func (s *kvState) get(c *client) bool {
	e := &s.entries[s.rnd.IntN(len(s.entries))]
	e.used = s.now
	b := s.buf[:e.valSize]
	return c.read(e.val, b) == nil && s.checkValue(b, e.stamp)
}

func (s *kvState) verify(c *client) bool {
	ok := true
	for _, e := range s.entries {
		b := s.buf[:e.valSize]
		if c.read(e.val, b) != nil || !s.checkValue(b, e.stamp) {
			ok = false
		}
	}
	return ok
}

func (s *kvState) liveObjects() int64 { return 3 * int64(len(s.entries)) }
