package server

import (
	"context"
	"errors"
	"sync"
)

// ErrOverloaded is returned when a query arrives while the admission queue
// is already full — the server sheds load instead of buffering unboundedly.
var ErrOverloaded = errors.New("server: overloaded: admission queue full")

// errClosed refuses admission on a server that Close is shutting down.
var errClosed = errors.New("server: closed")

// scheduler is the server's admission controller: at most maxInFlight
// queries run at once, at most maxQueue more wait in strict FIFO order, and
// anything beyond that is rejected immediately. A waiter that gives up
// (deadline, canceled request) leaves the queue without consuming a slot.
type scheduler struct {
	mu          sync.Mutex
	maxInFlight int
	maxQueue    int
	free        int // slots not running anyone
	waiters     []*waiter
	closed      bool      // drain has begun: admit no one
	idle        sync.Cond // L is mu (set by drain); signalled when no run holds a slot
}

// waiter is one queued query. granted is written under the scheduler mutex:
// release hands a slot directly to the head waiter, and a waiter that times
// out at that exact moment must pass the slot on rather than leak it. A
// waiter woken without granted was turned away by drain.
type waiter struct {
	ch      chan struct{}
	granted bool
}

func newScheduler(maxInFlight, maxQueue int) *scheduler {
	return &scheduler{maxInFlight: maxInFlight, maxQueue: maxQueue, free: maxInFlight}
}

// acquire blocks until a run slot is free, the queue is full (ErrOverloaded)
// or ctx expires. On nil error the caller owns a slot and must release it.
func (s *scheduler) acquire(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errClosed
	}
	if s.free > 0 {
		s.free--
		s.mu.Unlock()
		return nil
	}
	if len(s.waiters) >= s.maxQueue {
		s.mu.Unlock()
		return ErrOverloaded
	}
	w := &waiter{ch: make(chan struct{})}
	s.waiters = append(s.waiters, w)
	s.mu.Unlock()

	select {
	case <-w.ch:
		if !w.granted {
			return errClosed
		}
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		if w.granted {
			// release closed our channel while we were giving up: the slot
			// is ours, hand it to the next waiter
			s.mu.Unlock()
			s.release()
			return ctx.Err()
		}
		for i, x := range s.waiters {
			if x == w {
				s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
				break
			}
		}
		s.mu.Unlock()
		return ctx.Err()
	}
}

// release returns a slot: the head waiter gets it directly, else it goes
// back to the free pool.
func (s *scheduler) release() {
	s.mu.Lock()
	if len(s.waiters) > 0 {
		w := s.waiters[0]
		s.waiters = s.waiters[1:]
		w.granted = true
		close(w.ch)
		s.mu.Unlock()
		return
	}
	if s.free < s.maxInFlight {
		s.free++
	}
	if s.free == s.maxInFlight {
		s.idle.Broadcast()
	}
	s.mu.Unlock()
}

// drain stops admission — queued and later acquires fail with errClosed —
// and blocks until every admitted run has released its slot: at most
// Config.QueryTimeout plus one superstep, as runs inherit their request's.
func (s *scheduler) drain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed, s.idle.L = true, &s.mu
	for _, w := range s.waiters {
		close(w.ch)
	}
	s.waiters = nil
	for s.free < s.maxInFlight {
		s.idle.Wait()
	}
}

// gauges reports the current queue depth and in-flight count.
func (s *scheduler) gauges() (queued, inFlight int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.waiters), s.maxInFlight - s.free
}
