// Package freelist is a miniature of the repo's internal/freelist, here so
// the poolreset fixture exercises the free-list rules against the same
// (package-path suffix, type name) shape the real package has.
package freelist

// List recycles *T.
type List[T any] struct{ idle []*T }

// Get takes an idle *T, or makes one.
func (l *List[T]) Get() *T {
	if n := len(l.idle); n > 0 {
		x := l.idle[n-1]
		l.idle = l.idle[:n-1]
		return x
	}
	return new(T)
}

// Put adds x to the idle entries.
func (l *List[T]) Put(x *T) { l.idle = append(l.idle, x) }
