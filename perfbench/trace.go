package main

import (
	"time"

	"repro/mesh"
)

// layer names the boundary a span was recorded at: the request itself, or
// one public call into the allocator, named after the module that serves
// it.
type layer uint8

const (
	layRequest layer = iota
	layMalloc
	layFree
	layMallocBatch
	layFreeBatch
	layWrite
	layRead
	layMesh
	layFlush
	numLayers
)

var layerNames = [numLayers]string{
	"request", "mesh.Malloc", "mesh.Free", "mesh.MallocBatch", "mesh.FreeBatch",
	"vm.Write", "vm.Read", "meshing.Mesh", "mesh.Flush",
}

// layerAgg accumulates one layer's spans. self is the duration not covered
// by child spans.
type layerAgg struct {
	count int64
	objs  int64
	total time.Duration
	self  time.Duration
}

// spanLog aggregates the spans of one goroutine by layer. A request span is
// open between beginRequest and endRequest; call spans recorded meanwhile
// are its children. Only the aggregates are kept, so tracing adds nothing
// to the Go heap during the timed phase.
type spanLog struct {
	agg [numLayers]layerAgg

	reqStart time.Time
	reqChild time.Duration // time of the open request's child spans
}

func (l *spanLog) beginRequest(t0 time.Time) {
	l.reqStart, l.reqChild = t0, 0
}

func (l *spanLog) endRequest(t1 time.Time) {
	d := t1.Sub(l.reqStart)
	a := &l.agg[layRequest]
	a.count++
	a.total += d
	a.self += d - l.reqChild
}

// call records a leaf span for one allocator call that started at t0 and
// covered objs objects.
func (l *spanLog) call(ly layer, t0 time.Time, objs int) {
	d := time.Since(t0)
	a := &l.agg[ly]
	a.count++
	a.objs += int64(objs)
	a.total += d
	a.self += d
	l.reqChild += d
}

// client issues every public call a workload makes. With a nil log it
// calls straight through; otherwise each call becomes a span.
type client struct {
	a   *mesh.Allocator
	log *spanLog
	all *[]*spanLog // every log of the round, when traced
}

// fork returns a client for another goroutine, with its own span log. Call
// it before starting that goroutine.
func (c *client) fork() *client {
	if c.log == nil {
		return &client{a: c.a}
	}
	f := &client{a: c.a, log: &spanLog{}, all: c.all}
	*c.all = append(*c.all, f.log)
	return f
}

func (c *client) malloc(n int) (mesh.Ptr, error) {
	if c.log == nil {
		return c.a.Malloc(n)
	}
	t0 := time.Now()
	p, err := c.a.Malloc(n)
	c.log.call(layMalloc, t0, 1)
	return p, err
}

func (c *client) free(p mesh.Ptr) error {
	if c.log == nil {
		return c.a.Free(p)
	}
	t0 := time.Now()
	err := c.a.Free(p)
	c.log.call(layFree, t0, 1)
	return err
}

func (c *client) mallocBatch(sizes []int) ([]mesh.Ptr, error) {
	if c.log == nil {
		return c.a.MallocBatch(sizes)
	}
	t0 := time.Now()
	ps, err := c.a.MallocBatch(sizes)
	c.log.call(layMallocBatch, t0, len(sizes))
	return ps, err
}

func (c *client) freeBatch(ps []mesh.Ptr) error {
	if c.log == nil {
		return c.a.FreeBatch(ps)
	}
	t0 := time.Now()
	err := c.a.FreeBatch(ps)
	c.log.call(layFreeBatch, t0, len(ps))
	return err
}

func (c *client) write(p mesh.Ptr, b []byte) error {
	if c.log == nil {
		return c.a.Write(p, b)
	}
	t0 := time.Now()
	err := c.a.Write(p, b)
	c.log.call(layWrite, t0, 1)
	return err
}

func (c *client) read(p mesh.Ptr, b []byte) error {
	if c.log == nil {
		return c.a.Read(p, b)
	}
	t0 := time.Now()
	err := c.a.Read(p, b)
	c.log.call(layRead, t0, 1)
	return err
}

func (c *client) mesh() int {
	if c.log == nil {
		return c.a.Mesh()
	}
	t0 := time.Now()
	n := c.a.Mesh()
	c.log.call(layMesh, t0, 1)
	return n
}

func (c *client) flush() error {
	if c.log == nil {
		return c.a.Flush()
	}
	t0 := time.Now()
	err := c.a.Flush()
	c.log.call(layFlush, t0, 1)
	return err
}
