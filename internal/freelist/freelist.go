// Package freelist recycles scratch between calls that may start on any P,
// with sync.Pool's lifetime.
//
// A sync.Pool keeps what was put back in the putting P's slots. That suits
// memory taken and returned within one call, but a run's scratch goes back
// at the end of one query and is taken at the start of the next, which the
// scheduler often starts on another P: there a Get misses an idle entry that
// sits in the first P's private slot, and after a collection in its victim
// slot. A List indexes its idle entries in one mutex-guarded stack that every
// P reads, so a Get finds any of them.
//
// A List holds an idle entry as long as a sync.Pool would. Each idle entry is
// held strongly for exactly one collection: the first collection after a Put
// leaves it in the List, the second frees it. The stack holds only weak
// pointers; the strong reference rides in a sync.Pool that no one takes from,
// whose victim cache the runtime drops at the start of the second
// collection. Under the race detector a sync.Pool drops some of what is put
// into it, so there an idle entry may be freed by the first.
//
// Two small costs remain besides the entries. That sync.Pool keeps one slot
// per Put until the second collection after it, so with the collector off it
// grows by a slot each Put. And the stack keeps the weak pointers of freed
// entries that sit below a live one until a Get pops down to them, at most
// one per entry that was ever idle at once. Get does not scan for them: a
// weak pointer read during marking keeps its entry alive for that cycle.
package freelist

import (
	"sync"
	"weak"
)

// A List is a set of idle *T that any goroutine may take from or put back
// into. The zero List is empty and ready to use. A List must not be copied
// after first use.
type List[T any] struct {
	mu   sync.Mutex
	idle []weak.Pointer[T] // most recently put last
	hold sync.Pool         // keeps each idle *T strongly reachable for one collection
}

// Get removes the most recently put idle *T that is still alive and returns
// it. With none left it returns a new zero T.
func (l *List[T]) Get() *T {
	l.mu.Lock()
	for n := len(l.idle); n > 0; n-- {
		w := l.idle[n-1]
		l.idle = l.idle[:n-1]
		if x := w.Value(); x != nil {
			l.mu.Unlock()
			return x
		}
	}
	l.mu.Unlock()
	return new(T)
}

// Put adds x to the idle entries. x must not be in use, nor already idle:
// a later Get hands it to its caller alone.
func (l *List[T]) Put(x *T) {
	l.hold.Put(x)
	w := weak.Make(x)
	l.mu.Lock()
	l.idle = append(l.idle, w)
	l.mu.Unlock()
}
