// Package poolreset exercises the poolreset analyzer: a pool-recycled struct
// whose reset() misses a field leaks one run's state into the next. This file
// recycles through sync.Pools, list.go through freelist.Lists.
package poolreset

import "sync"

type scratch struct {
	buf  []byte
	n    int
	lost int
	name string //grapevet:keep fixture: construction-time identity, never varies across runs
}

var pool = sync.Pool{New: func() any { return new(scratch) }}

func get() *scratch { return pool.Get().(*scratch) }

func put(s *scratch) {
	s.reset()
	pool.Put(s)
}

func (s *scratch) reset() { // want "pooled scratch.reset does not assign field \"lost\""
	s.buf = s.buf[:0]
	s.n = 0
}

// clean resets every field, partly through a sibling method — both spellings
// count as assignment.
type clean struct {
	a int
	b int
	m map[int]int
}

var cleanPool = sync.Pool{}

func cleanPut(c *clean) {
	c.reset()
	cleanPool.Put(c)
}

func (c *clean) reset() {
	c.a = 0
	clear(c.m)
	c.clearB()
}

func (c *clean) clearB() { c.b = 0 }

var _, _ = get, cleanPut
