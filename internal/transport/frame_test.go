package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"grape/internal/mpi"
)

// claimedGiB is the 16-byte frame header of the attack: length 1<<30 (the
// largest readFrame accepts), fragment 0, superstep 1, no data. Nothing
// follows it.
var claimedGiB = []byte{0x40, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0}

// heapAfterStall sends the header and reports by how much the heap grew while
// the reader sat waiting for a payload that never comes.
func heapAfterStall(t *testing.T, nc net.Conn) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := nc.Write(claimedGiB); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	runtime.ReadMemStats(&after)
	if after.HeapAlloc < before.HeapAlloc {
		return 0
	}
	return after.HeapAlloc - before.HeapAlloc
}

// TestClaimedLengthDoesNotAllocate: 24 bytes from any dialer — the hello and
// one frame header claiming 1 GiB — used to make the coordinator allocate
// 1 GiB before a payload byte had arrived. Memory follows the bytes received:
// the stalled link costs less than 1 MB, and closing it surfaces as the one
// classified worker-fatal envelope a dead link always was.
func TestClaimedLengthDoesNotAllocate(t *testing.T) {
	l, err := NewListener("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	nc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	hello := binary.BigEndian.AppendUint32([]byte(magic), version)
	if _, err := nc.Write(hello); err != nil {
		t.Fatal(err)
	}
	c, err := l.AcceptWorkers(1, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if grew := heapAfterStall(t, nc); grew >= 1<<20 {
		t.Fatalf("a header claiming 1 GiB grew the coordinator's heap by %d bytes before any payload arrived", grew)
	}
	nc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	env, err := c.Recv(ctx, mpi.Coordinator)
	if err != nil {
		t.Fatal(err)
	}
	perr, _ := env.Payload.(error)
	if w, fatal := mpi.WorkerFatalOf(perr); env.Frame != nil || !fatal || w != 0 {
		t.Fatalf("closing the stalled link must surface one worker-fatal envelope for fragment 0, got %+v", env)
	}
}

// TestClaimedLengthDoesNotAllocateWorker is the mirror image: a rogue
// coordinator completes the handshake and claims 1 GiB at a worker.
func TestClaimedLengthDoesNotAllocateWorker(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dialed := make(chan *WorkerConn, 1)
	go func() {
		w, err := Dial("tcp", ln.Addr().String(), 5*time.Second)
		if err != nil {
			t.Error(err)
		}
		dialed <- w
	}()
	nc, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	var hello [8]byte
	if _, err := nc.Read(hello[:]); err != nil {
		t.Fatal(err)
	}
	resp := make([]byte, 16) // index 0 of 1 workers, no liveness window
	resp[7] = 1
	if _, err := nc.Write(resp); err != nil {
		t.Fatal(err)
	}
	w := <-dialed
	if w == nil {
		t.FailNow()
	}
	defer w.Close()
	if grew := heapAfterStall(t, nc); grew >= 1<<20 {
		t.Fatalf("a header claiming 1 GiB grew the worker's heap by %d bytes before any payload arrived", grew)
	}
	nc.Close()
	var fatal *mpi.RunFatalError
	if _, err := w.Recv(); !errors.As(err, &fatal) {
		t.Fatalf("closing the stalled link must surface a run-fatal error at the worker, got %v", err)
	}
}

// TestReadFrameGrowsWithArrival: a payload beyond the largest pooled class is
// read in full, byte for byte, into an 8-aligned buffer.
func TestReadFrameGrowsWithArrival(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	payload := make([]byte, 3<<maxClass+5)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	go newConn(a).writeFrame(2, 0, 0, payload)
	_, _, _, got, err := newConn(b).readFrame()
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("large frame mangled: %d of %d bytes, err %v", len(got), len(payload), err)
	}
}

// FuzzReadFrame feeds arbitrary bytes to readFrame over a pipe that then
// closes: it returns an error or a payload no longer than the input, and
// never panics or sizes anything from a length the bytes do not back.
func FuzzReadFrame(f *testing.F) {
	f.Add(claimedGiB)
	f.Add([]byte{0, 0, 0, 12, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 14, 0xff, 0xff, 0xff, 0xfe, 0, 0, 0, 0, 0, 0, 0, 2, 'h', 'i'})
	f.Add([]byte{0, 0, 0, 13, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 'x'})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := net.Pipe()
		defer b.Close()
		go func() {
			a.Write(data)
			a.Close()
		}()
		cn := newConn(b)
		defer cn.unread()
		for {
			_, _, size, payload, err := cn.readFrame()
			if err != nil {
				return
			}
			if payload == nil || len(payload) > len(data) || size > len(payload) {
				t.Fatalf("readFrame returned %d payload bytes (nil=%v), data size %d, from %d input bytes", len(payload), payload == nil, size, len(data))
			}
		}
	})
}

// TestSessionBuffersAreReused: the second loopback session reuses the link
// buffers and payload buffers the first returned, so opening, using and
// closing it allocates less than half the bytes the first did.
func TestSessionBuffersAreReused(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool is lossy under the race detector")
	}
	const n = 8
	session := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		l, err := NewListener("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w, err := Dial("tcp", l.Addr().String(), 5*time.Second)
				if err != nil {
					t.Error(err)
					return
				}
				defer w.Close()
				env, err := w.Recv()
				if err != nil {
					t.Error(err)
					return
				}
				w.Send(mpi.Envelope{From: env.To, Step: 1, Frame: env.Frame, Size: len(env.Frame)})
				w.Release(env.Frame)
				w.Recv() // until the coordinator closes
			}()
		}
		c, err := l.AcceptWorkers(n, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		msg := bytes.Repeat([]byte{0x5a}, 100<<10)
		for i := 0; i < n; i++ {
			c.Send(mpi.Envelope{To: i, Step: 1, Frame: msg, Size: len(msg)})
		}
		for i := 0; i < n; i++ {
			env, err := c.Recv(context.Background(), mpi.Coordinator)
			if err != nil || !bytes.Equal(env.Frame, msg) {
				t.Fatalf("echo %d: %d bytes, err %v", i, len(env.Frame), err)
			}
			c.Release(env.Frame)
		}
		c.Close()
		l.Close()
		wg.Wait()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	// Two collections empty every sync.Pool, so the first session is cold
	// whatever ran before it (another -count iteration included). Then the
	// collector stays off: a collection between the sessions would empty the
	// pools.
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// One P, one per-P pool cache: with more, a buffer put back on one P can
	// sit in that P's private slot, where a Get on another never looks.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	first := session()
	time.Sleep(50 * time.Millisecond) // the workers' pumps return their buffers as they exit, after Close
	second := session()
	t.Logf("first session allocated %d bytes, second %d", first, second)
	if second*2 >= first {
		t.Fatalf("second session allocated %d bytes, first %d: want less than half", second, first)
	}
}
