package freelist

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

type entry struct {
	inUse atomic.Bool
	buf   []byte
}

// TestGetHandsOutEachEntryOnce: goroutines on every P take and put back
// entries, and no entry is ever held by two of them at once.
func TestGetHandsOutEachEntryOnce(t *testing.T) {
	var l List[entry]
	var made atomic.Int64
	var wg sync.WaitGroup
	for range 2 * runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 2000 {
				e := l.Get()
				if !e.inUse.CompareAndSwap(false, true) {
					t.Error("Get handed out an entry that is in use")
					return
				}
				if e.buf == nil {
					made.Add(1)
				}
				e.buf = append(e.buf[:0], 1)
				e.inUse.Store(false)
				l.Put(e)
			}
		}()
	}
	wg.Wait()
	t.Logf("%d goroutines, %d entries made", 2*runtime.GOMAXPROCS(0), made.Load())
}

// TestGetReturnsWhatWasPut: Get hands back the entry put last, and a new
// zero entry once none is idle.
func TestGetReturnsWhatWasPut(t *testing.T) {
	var l List[entry]
	e := l.Get()
	if e == nil || e.buf != nil {
		t.Fatalf("an empty List returned %v, want a new zero entry", e)
	}
	e.buf = []byte{1}
	l.Put(e)
	if got := l.Get(); got != e {
		t.Fatalf("Get returned %p, want the entry put back, %p", got, e)
	}
	if got := l.Get(); got == e || got.buf != nil {
		t.Fatalf("Get returned %p after the only entry was taken, want a new zero entry", got)
	}
}
