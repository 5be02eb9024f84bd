package transport

import (
	"bytes"
	"net"
	"strings"
	"testing"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	ca, cb := newConn(a), newConn(b)
	payload := bytes.Repeat([]byte{0xab, 0x01}, 1000)
	go func() {
		if err := ca.writeFrame(3, 7, 42, payload); err != nil {
			t.Error(err)
		}
	}()
	frag, step, size, got, err := cb.readFrame()
	if err != nil {
		t.Fatal(err)
	}
	if frag != 3 || step != 7 || size != 42 || !bytes.Equal(got, payload) {
		t.Fatalf("frame mangled: frag %d step %d size %d len %d", frag, step, size, len(got))
	}
}

func TestFrameRejectsBadLength(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		// 4-byte length claiming 2 GiB
		a.Write([]byte{0x80, 0x00, 0x00, 0x00, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	}()
	if _, _, _, _, err := newConn(b).readFrame(); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// TestFrameRejectsInconsistentSize: the metered data size can never exceed
// the payload the frame actually carries.
func TestFrameRejectsInconsistentSize(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		// length = 12 (header only, empty payload) but size claims 100 bytes
		a.Write([]byte{0x00, 0x00, 0x00, 0x0c, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 100})
	}()
	if _, _, _, _, err := newConn(b).readFrame(); err == nil {
		t.Fatal("frame with data size exceeding payload accepted")
	}
}

// TestFrameRejectsTruncatedHeader: a length prefix below the fixed header
// size must error out, not underflow into a huge read.
func TestFrameRejectsTruncatedHeader(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		a.Write([]byte{0x00, 0x00, 0x00, 0x04, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	}()
	if _, _, _, _, err := newConn(b).readFrame(); err == nil {
		t.Fatal("truncated frame header accepted")
	}
}

// TestHandshakeSurvivesBadMagic: a stray connection (wrong magic, or a hello
// from an older protocol version — there is exactly one) must be dropped
// without aborting the accept round — a later legitimate worker still gets
// the slot.
func TestHandshakeSurvivesBadMagic(t *testing.T) {
	// The refusal names its cause.
	for hello, want := range map[string]string{"NOPE\x00\x00\x00\x07": "bad magic", "GRPW\x00\x00\x00\x06": "protocol version 6, want 7"} {
		a, b := net.Pipe()
		go b.Write([]byte(hello))
		err := handshakeCoordinator(newConn(a), 0, 1, time.Second, time.Now().Add(5*time.Second))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("hello %q: want a %q refusal, got %v", hello, want, err)
		}
		a.Close()
		b.Close()
	}

	l, err := NewListener("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	type result struct {
		c   *Coordinator
		err error
	}
	done := make(chan result, 1)
	go func() {
		c, err := l.AcceptWorkers(1, 5*time.Second)
		done <- result{c, err}
	}()
	nc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.Write([]byte("NOPE\x00\x00\x00\x01"))
	old, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	old.Write([]byte("GRPW\x00\x00\x00\x04"))
	w, err := Dial("tcp", l.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatalf("legitimate worker rejected after stray connection: %v", err)
	}
	defer w.Close()
	r := <-done
	if r.err != nil {
		t.Fatalf("accept round failed: %v", r.err)
	}
	r.c.Close()
	if w.Index() != 0 || w.N() != 1 {
		t.Fatalf("worker got index %d of %d", w.Index(), w.N())
	}
}

func TestDialFailsFastOnPermanentError(t *testing.T) {
	start := time.Now()
	_, err := Dial("unixx", "/nonexistent", 10*time.Second)
	if err == nil {
		t.Fatal("bad network kind accepted")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("permanent dial error retried for %v", elapsed)
	}
}
