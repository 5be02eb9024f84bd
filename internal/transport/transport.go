// Package transport is the wire implementation of mpi.Transport: a
// length-prefixed binary frame protocol over TCP or Unix-domain sockets that
// lets each GRAPE worker run as a separate OS process. It is the second of
// the engine's two substrates — internal/mpi's Bus keeps workers as
// goroutines and estimates traffic; this package puts real sockets between
// the parties and meters the actual encoded bytes.
//
// Topology and handshake: the coordinator listens; each worker process
// (cmd/grape-worker) dials, sends a 8-byte hello (magic + protocol version),
// and receives its assigned worker index, the total worker count, and the
// liveness window. Workers are indexed in accept order. After the handshake
// the engine takes over: the coordinator ships each worker a setup frame
// (program name, encoded query, its fragment) followed by the PIE command
// stream; the worker answers with encoded replies and, after the fixpoint,
// its partial answer (see internal/engine/wire.go for the frame contents).
//
// Frame layout on the socket, all integers big-endian:
//
//	uint32  length of the rest (fragment + step + size + payload)
//	int32   fragment the frame addresses (coordinator → worker) or comes
//	        from (worker → coordinator); -2 is a ping, -3 a pong
//	int32   superstep
//	int32   metered data size (0 = control; only data counts as traffic,
//	        matching the in-process bus's accounting)
//	bytes   payload (engine-encoded)
//
// Failure model: every link failure is *classified* (see
// internal/mpi): a broken, silent, or frame-corrupting worker link surfaces
// as one worker-fatal envelope per fragment assigned to that link — which
// the engine either turns into a run error or, with recovery enabled,
// survives by reassigning the fragments to other links (Reassign) and
// replaying them from its superstep checkpoint. Liveness is active on both
// sides: the coordinator pings every link and kills one that stays silent
// past the window; a worker's reads are deadline-bounded by the same window
// (pings reset it), so a vanished coordinator unblocks the worker instead of
// hanging it forever.
//
// Cancellation: the coordinator's Recv is context-aware, so a cancelled run
// stops waiting at the superstep barrier immediately; the engine then
// broadcasts an abort command frame that makes each worker process discard
// the run (engine.ErrAborted), and the setup frame carries the run deadline
// so a worker bounds itself even if the coordinator dies first.
package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"grape/internal/graph"
	"grape/internal/mpi"
)

// retryableDial reports whether a dial error means "the coordinator is not
// up yet" rather than a permanent misconfiguration.
func retryableDial(err error) bool {
	return errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.ENOENT) ||
		errors.Is(err, os.ErrNotExist)
}

const (
	magic = "GRPW"
	// version is the one protocol both ends speak: coordinator and worker
	// ship from one tree, so the handshake refuses anything else. It covers
	// the fragment field of the frame header (one link can host several
	// fragments after reassignment), ping/pong liveness frames with the
	// window in the handshake response, the abort frame and setup-frame
	// deadline, the compute/apply timing tail of reply frames, flat
	// fragment frames laid 8-aligned at the tail of setup and adopt frames,
	// and engine frames that name a vertex by the position both ends share
	// (a dense index or a border position), never by its ID — the default
	// partial answer included, which is one batch by dense index.
	version = 7
	// maxFrame caps a single frame: fragments of very large graphs dominate
	// frame sizes; 1 GiB is far beyond anything this repo generates while
	// still bounding a corrupted length prefix.
	maxFrame = 1 << 30

	// pingFrag and pongFrag are the fragment-field sentinels of the liveness
	// frames. Real fragments are never negative.
	pingFrag = -2
	pongFrag = -3

	frameHeaderLen = 16
	// connBuf sizes each link's read buffer; larger payloads bypass it.
	connBuf = 1 << 16
	// Pooled payload buffers come in power-of-two classes, 1<<minClass to
	// 1<<maxClass bytes. readFrame's first read of a payload takes at most
	// 1<<firstClass bytes, and each further read at most what has arrived,
	// so memory never runs further ahead of arrival than that.
	minClass, firstClass, maxClass = 9, 19, 22

	// Liveness defaults: the coordinator pings every link at pingEvery and
	// declares one dead after window of silence; workers bound their reads
	// by the same window. The window is several pings wide so one delayed
	// scheduler tick cannot kill a healthy link.
	defaultPingEvery = 5 * time.Second
	defaultWindow    = 20 * time.Second
)

// AcceptOption configures AcceptWorkers.
type AcceptOption func(*acceptConfig)

type acceptConfig struct {
	every  time.Duration
	window time.Duration
}

// WithLiveness overrides the liveness schedule: the coordinator pings every
// link at interval every and kills a link silent for longer than window;
// workers deadline their reads by the same window. WithLiveness(0, 0)
// disables liveness entirely (no pings, unbounded reads).
func WithLiveness(every, window time.Duration) AcceptOption {
	return func(c *acceptConfig) {
		c.every = every
		c.window = window
	}
}

// Listener accepts worker connections for one distributed run.
type Listener struct {
	ln net.Listener
}

// NewListener starts listening on network ("tcp" or "unix") and addr.
// Use Addr to discover the bound address when addr requests an ephemeral
// port (":0").
func NewListener(network, addr string) (*Listener, error) {
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s %s: %w", network, addr, err)
	}
	return &Listener{ln: ln}, nil
}

// Addr returns the listener's bound address.
func (l *Listener) Addr() net.Addr { return l.ln.Addr() }

// Close stops accepting workers.
func (l *Listener) Close() error { return l.ln.Close() }

// AcceptWorkers blocks until n workers have dialed and completed the
// handshake (or timeout elapses), then returns the connected coordinator
// transport. The listener stays open and can accept another round.
func (l *Listener) AcceptWorkers(n int, timeout time.Duration, opts ...AcceptOption) (*Coordinator, error) {
	if n <= 0 {
		return nil, fmt.Errorf("transport: need a positive worker count, got %d", n)
	}
	cfg := acceptConfig{every: defaultPingEvery, window: defaultWindow}
	for _, o := range opts {
		o(&cfg)
	}
	deadline := time.Now().Add(timeout)
	c := &Coordinator{
		n:         n,
		conns:     make([]*conn, n),
		inbox:     make(chan mpi.Envelope, 4*n+16),
		assign:    make([]int, n),
		alive:     make([]bool, n),
		lastHeard: make([]atomic.Int64, n),
		pingEvery: cfg.every,
		window:    cfg.window,
		done:      make(chan struct{}),
	}
	for i := 0; i < n; i++ {
		for {
			if d, ok := l.ln.(interface{ SetDeadline(time.Time) error }); ok {
				d.SetDeadline(deadline)
			}
			nc, err := l.ln.Accept()
			if err != nil {
				c.Close()
				return nil, fmt.Errorf("transport: accepting worker %d of %d: %w", i, n, err)
			}
			cn := newConn(nc)
			if err := handshakeCoordinator(cn, i, n, cfg.window, deadline); err != nil {
				// A stray connection (port scanner, wrong client) must not
				// abort the workers already accepted: drop it and keep the
				// slot open until the deadline.
				nc.Close()
				if time.Now().After(deadline) {
					c.Close()
					return nil, fmt.Errorf("transport: worker %d handshake: %w", i, err)
				}
				continue
			}
			c.conns[i] = cn
			break
		}
	}
	if d, ok := l.ln.(interface{ SetDeadline(time.Time) error }); ok {
		d.SetDeadline(time.Time{})
	}
	now := time.Now().UnixNano()
	for i, cn := range c.conns {
		c.assign[i] = i
		c.alive[i] = true
		c.lastHeard[i].Store(now)
		c.wg.Add(1)
		go c.reader(i, cn)
	}
	if c.pingEvery > 0 && c.window > 0 {
		c.wg.Add(1)
		go c.pinger()
	}
	return c, nil
}

// Listen is NewListener + AcceptWorkers for callers with a fixed address.
func Listen(network, addr string, n int, timeout time.Duration, opts ...AcceptOption) (*Coordinator, *Listener, error) {
	l, err := NewListener(network, addr)
	if err != nil {
		return nil, nil, err
	}
	c, err := l.AcceptWorkers(n, timeout, opts...)
	if err != nil {
		l.Close()
		return nil, nil, err
	}
	return c, l, nil
}

// Coordinator is the coordinator's side of the socket transport: an
// mpi.Transport whose workers live in other processes. A Coordinator is
// single-use per engine run (Claim); Close it when the run finishes. It
// implements mpi.Reassigner: a fragment can be re-homed onto another
// worker's link after its own died, which is how the engine's recovery path
// survives worker crashes.
type Coordinator struct {
	n     int
	conns []*conn
	inbox chan mpi.Envelope

	msgs  atomic.Int64
	bytes atomic.Int64

	// mu guards assign and alive. A reader marks its link dead and
	// snapshots the fragments assigned to it in one critical section, so a
	// racing Reassign onto a dying link either lands before the snapshot
	// (and gets a worker-fatal envelope for the fragment) or fails cleanly.
	mu     sync.Mutex
	assign []int  // fragment -> link index
	alive  []bool // link index -> still usable

	lastHeard []atomic.Int64 // link index -> UnixNano of the last frame
	pingEvery time.Duration
	window    time.Duration

	claimed atomic.Bool // a run has started on these links (Claim)

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

var _ mpi.Transport = (*Coordinator)(nil)
var _ mpi.Reassigner = (*Coordinator)(nil)

// ErrSpent is why a run is refused on a fleet that already served one: each
// worker process serves a single run and then hangs up, so a second run would
// find every link closed and read as every worker dying at once. Nothing was
// sent, and nothing can be recovered.
var ErrSpent = errors.New("worker fleet already served a run")

// Workers returns the number of fragments the transport serves (equal to
// the number of worker processes accepted; reassignment can concentrate
// several fragments on one surviving process).
func (c *Coordinator) Workers() int { return c.n }

// Wire reports that payloads cross a process boundary.
func (c *Coordinator) Wire() bool { return true }

// Claim reserves the links for one run. A worker serves a single run and
// hangs up, so every later Claim fails with ErrSpent: the engine refuses the
// run before a setup frame goes out, rather than reading the closed links as
// worker deaths.
func (c *Coordinator) Claim() error {
	if c.claimed.Swap(true) {
		return fmt.Errorf("transport: %d workers: %w", c.n, ErrSpent)
	}
	return nil
}

// Reassign re-homes fragment frag onto worker host's link: subsequent
// frames addressed to frag are written there. It fails if host's link is
// already dead — the caller picks another survivor.
func (c *Coordinator) Reassign(frag, host int) error {
	if frag < 0 || frag >= c.n || host < 0 || host >= c.n {
		return fmt.Errorf("transport: reassign fragment %d to worker %d: out of range", frag, host)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.alive[host] {
		return fmt.Errorf("transport: reassign fragment %d: worker %d link is dead", frag, host)
	}
	c.assign[frag] = host
	return nil
}

// Send writes e's frame to the link hosting fragment e.To and meters
// e.Size. A failed write — socket error or a frame over the size limit —
// closes that link, so its reader surfaces the failure (one worker-fatal
// envelope per hosted fragment) on the next Recv, which is where the engine
// handles faults; Send itself stays error-free for the hot path. A send to
// an already-dead link is dropped: its fault has already been surfaced.
func (c *Coordinator) Send(e mpi.Envelope) {
	if e.To < 0 || e.To >= c.n {
		panic(fmt.Sprintf("transport: send to unknown fragment %d", e.To))
	}
	if e.Size > 0 {
		c.msgs.Add(1)
		c.bytes.Add(int64(e.Size))
	}
	c.mu.Lock()
	h := c.assign[e.To]
	ok := c.alive[h]
	c.mu.Unlock()
	if !ok {
		return
	}
	if err := c.conns[h].writeFrame(e.To, e.Step, e.Size, e.Frame); err != nil {
		c.conns[h].nc.Close()
	}
}

// Recv blocks until any worker delivers a frame (party must be
// mpi.Coordinator; workers hold their own WorkerConn in their own process)
// or ctx is done, in which case the engine is abandoning the superstep —
// it will broadcast abort frames and return. A broken link yields one
// Envelope per fragment it hosted, each with a nil Frame and the classified
// worker-fatal error in Payload.
func (c *Coordinator) Recv(ctx context.Context, party int) (mpi.Envelope, error) {
	if party != mpi.Coordinator {
		panic(fmt.Sprintf("transport: coordinator cannot receive for party %d", party))
	}
	select {
	case env := <-c.inbox:
		if env.Size > 0 {
			c.msgs.Add(1)
			c.bytes.Add(int64(env.Size))
		}
		return env, nil
	case <-ctx.Done(): // nil, and never ready, for a context that cannot be done
		//grapevet:keep context cancellation is the engine's own bound, not a link fault to classify
		return mpi.Envelope{}, ctx.Err()
	}
}

// Release hands a frame Recv delivered back to the payload pool.
func (c *Coordinator) Release(frame []byte) { putFrame(frame) }

// Messages returns the number of data messages metered so far.
func (c *Coordinator) Messages() int64 { return c.msgs.Load() }

// Bytes returns the number of data bytes metered so far.
func (c *Coordinator) Bytes() int64 { return c.bytes.Load() }

// AddTraffic meters communication that bypasses Send, e.g. the d-hop
// replication charged when fragments were expanded.
func (c *Coordinator) AddTraffic(msgs, bytes int64) {
	c.msgs.Add(msgs)
	c.bytes.Add(bytes)
}

// Close tears the links down and waits for the readers to drain.
func (c *Coordinator) Close() error {
	c.closeOnce.Do(func() {
		close(c.done)
		for _, cn := range c.conns {
			if cn != nil {
				cn.nc.Close()
			}
		}
	})
	c.wg.Wait()
	return nil
}

// reader pumps one link's frames into the shared inbox until the link
// breaks or the coordinator closes. Link death — a socket error, a
// malformed frame, or the pinger closing a silent link — is classified
// worker-fatal and surfaced once per fragment the link was hosting.
func (c *Coordinator) reader(h int, cn *conn) {
	defer c.wg.Done()
	defer cn.unread()
	for {
		frag, step, size, payload, err := cn.readFrame()
		if err == nil && frag != pongFrag && (frag < 0 || frag >= c.n) {
			err = fmt.Errorf("transport: frame from fragment %d, which this run does not have", frag)
		}
		if err != nil {
			cn.nc.Close()
			c.mu.Lock()
			c.alive[h] = false
			var frags []int
			for f := 0; f < c.n; f++ {
				if c.assign[f] == h {
					frags = append(frags, f)
				}
			}
			c.mu.Unlock()
			select {
			case <-c.done: // deliberate shutdown; not a fault
				return
			default:
			}
			for _, f := range frags {
				env := mpi.Envelope{From: f, To: mpi.Coordinator, Payload: mpi.WorkerFatal(f, fmt.Errorf("worker link: %w", err))}
				select {
				case c.inbox <- env:
				case <-c.done:
					return
				}
			}
			return
		}
		c.lastHeard[h].Store(time.Now().UnixNano())
		if frag == pongFrag {
			continue
		}
		select {
		case c.inbox <- mpi.Envelope{From: frag, To: mpi.Coordinator, Step: step, Size: size, Frame: payload}:
		case <-c.done:
			return
		}
	}
}

// pinger keeps every link's liveness fresh: a ping per interval, and a
// close — which makes the link's reader surface classified faults — for any
// link silent past the window.
func (c *Coordinator) pinger() {
	defer c.wg.Done()
	t := time.NewTicker(c.pingEvery)
	defer t.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-t.C:
		}
		now := time.Now()
		for h := 0; h < len(c.conns); h++ {
			c.mu.Lock()
			ok := c.alive[h]
			c.mu.Unlock()
			if !ok {
				continue
			}
			if now.Sub(time.Unix(0, c.lastHeard[h].Load())) > c.window {
				// Silent past the window: kill the link so its reader
				// surfaces the fault instead of stalling the barrier.
				c.conns[h].nc.Close()
				continue
			}
			if err := c.conns[h].writeFrame(pingFrag, 0, 0, nil); err != nil {
				c.conns[h].nc.Close()
			}
		}
	}
}

// workerFrame is what the worker-side pump hands Recv: a delivered envelope
// or the link's terminal (classified) error.
type workerFrame struct {
	env mpi.Envelope
	err error
}

// WorkerConn is a worker process's end of the transport; it implements
// engine.WorkerLink. Obtain one with Dial.
type WorkerConn struct {
	cn     *conn
	index  int
	n      int
	window time.Duration

	frames    chan workerFrame
	done      chan struct{}
	closeOnce sync.Once
}

// Dial connects to a coordinator at addr, retrying "not up yet" failures
// (connection refused, unix socket not created) with capped exponential
// backoff and jitter until timeout — worker processes often start before
// the coordinator listens — and completes the handshake. Permanent errors
// (bad network kind, unroutable address) fail immediately.
func Dial(network, addr string, timeout time.Duration) (*WorkerConn, error) {
	nc, deadline, err := stdDialer().dialRetry(network, addr, timeout)
	if err != nil {
		return nil, err
	}
	cn := newConn(nc)
	index, n, window, err := handshakeWorker(cn, deadline)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("transport: handshake with %s: %w", addr, err)
	}
	w := &WorkerConn{
		cn:     cn,
		index:  index,
		n:      n,
		window: window,
		frames: make(chan workerFrame, 16),
		done:   make(chan struct{}),
	}
	go w.pump()
	return w, nil
}

// Index returns the worker index the coordinator assigned.
func (w *WorkerConn) Index() int { return w.index }

// N returns the total number of workers in the run.
func (w *WorkerConn) N() int { return w.n }

// pump reads frames off the socket continuously — so liveness pings are
// answered immediately even while the serve loop is deep in PEval/IncEval —
// answering pings inline and queueing everything else for Recv. With a
// liveness window, each read carries a deadline one window out: a
// coordinator that vanishes (netsplit, SIGKILL) stops pinging, the deadline
// fires, and the worker unblocks with a classified error instead of hanging
// at a barrier forever. The deadline is armed only after the first frame,
// so a worker waiting for peers to finish the accept round is not killed by
// its own patience.
func (w *WorkerConn) pump() {
	defer w.cn.unread()
	armed := false
	for {
		if w.window > 0 && armed {
			w.cn.nc.SetReadDeadline(time.Now().Add(w.window))
		}
		frag, step, size, payload, err := w.cn.readFrame()
		if err != nil {
			w.deliver(workerFrame{err: mpi.RunFatal(fmt.Errorf("transport: coordinator link: %w", err))})
			return
		}
		armed = true
		if frag == pingFrag {
			if err := w.cn.writeFrame(pongFrag, 0, 0, nil); err != nil {
				w.deliver(workerFrame{err: mpi.RunFatal(fmt.Errorf("transport: coordinator link: %w", err))})
				return
			}
			continue
		}
		if !w.deliver(workerFrame{env: mpi.Envelope{From: mpi.Coordinator, To: frag, Step: step, Size: size, Frame: payload}}) {
			return
		}
	}
}

func (w *WorkerConn) deliver(f workerFrame) bool {
	select {
	case w.frames <- f:
		return true
	case <-w.done:
		return false
	}
}

// Recv blocks until a frame from the coordinator arrives. Link errors —
// including a liveness timeout on a vanished coordinator — come back
// classified (mpi.RunFatal: from the worker's perspective, losing the
// coordinator ends the run).
func (w *WorkerConn) Recv() (mpi.Envelope, error) {
	select {
	case f := <-w.frames:
		//grapevet:keep f.err was classified by pump before it entered the frames channel
		return f.env, f.err
	case <-w.done:
		return mpi.Envelope{}, mpi.RunFatal(errors.New("transport: connection closed"))
	}
}

// Send delivers a frame to the coordinator, stamped with the fragment it
// speaks for (e.From). A write failure is classified run-fatal: a worker
// that cannot reach its coordinator has no run left.
func (w *WorkerConn) Send(e mpi.Envelope) error {
	if err := w.cn.writeFrame(e.From, e.Step, e.Size, e.Frame); err != nil {
		return mpi.RunFatal(fmt.Errorf("transport: coordinator link: %w", err))
	}
	return nil
}

// Release hands a frame Recv delivered back to the payload pool.
func (w *WorkerConn) Release(frame []byte) { putFrame(frame) }

// Close closes the link.
func (w *WorkerConn) Close() error {
	w.closeOnce.Do(func() { close(w.done) })
	return w.cn.nc.Close()
}

// conn wraps a socket with framing: reads are buffered, a frame goes out as
// one gathered write of header and payload, serialized by mu. Read buffers are
// pooled across sessions: the goroutine reading a link returns its on exit.
type conn struct {
	nc net.Conn
	br *bufio.Reader
	mu sync.Mutex
}

var (
	readers = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, connBuf) }}
	// frames[k] holds the base pointers of 8-aligned buffers of 1<<(minClass+k) bytes.
	frames [maxClass - minClass + 1]sync.Pool
)

func newConn(nc net.Conn) *conn {
	c := &conn{nc: nc, br: readers.Get().(*bufio.Reader)}
	c.br.Reset(nc)
	return c
}

func (c *conn) unread() {
	c.br.Reset(nil)
	readers.Put(c.br)
}

// getFrame returns an 8-aligned n-byte buffer, n in [1, 1<<maxClass], whose
// capacity is its class size; putFrame takes such a buffer back, no other.
func getFrame(n int) []byte {
	k := max(bits.Len(uint(n-1)), minClass)
	if p, _ := frames[k-minClass].Get().(*byte); p != nil {
		return unsafe.Slice(p, 1<<k)[:n]
	}
	return graph.AlignedBuf(1 << k)[:n]
}

func putFrame(b []byte) {
	if c := cap(b); c >= 1<<minClass && c <= 1<<maxClass && c&(c-1) == 0 {
		frames[bits.Len(uint(c))-1-minClass].Put(unsafe.SliceData(b))
	}
}

//grapevet:keep framing layer: callers (reader, pump, Send, Recv) classify its errors
func (c *conn) writeFrame(frag, step, size int, payload []byte) error {
	if len(payload) > maxFrame-(frameHeaderLen-4) {
		return fmt.Errorf("transport: frame payload of %d bytes exceeds the %d limit", len(payload), maxFrame-(frameHeaderLen-4))
	}
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(frameHeaderLen-4+len(payload)))
	binary.BigEndian.PutUint32(hdr[4:], uint32(int32(frag)))
	binary.BigEndian.PutUint32(hdr[8:], uint32(int32(step)))
	binary.BigEndian.PutUint32(hdr[12:], uint32(int32(size)))
	c.mu.Lock()
	defer c.mu.Unlock()
	_, err := (&net.Buffers{hdr[:], payload}).WriteTo(c.nc)
	return err
}

// readFrame validates the header hard: a truncated, oversized or
// internally-inconsistent frame is an error that closes the link (the
// caller classifies it), never a stall — a corrupted length prefix must not
// leave the peer waiting at a barrier for bytes that will never come.
//
//grapevet:keep framing layer: callers (reader, pump, Send, Recv) classify its errors
func (c *conn) readFrame() (frag, step, size int, payload []byte, err error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return 0, 0, 0, nil, err
	}
	length := binary.BigEndian.Uint32(hdr[0:])
	if length < frameHeaderLen-4 || length > maxFrame {
		return 0, 0, 0, nil, fmt.Errorf("transport: frame length %d outside [%d, %d]", length, frameHeaderLen-4, maxFrame)
	}
	frag = int(int32(binary.BigEndian.Uint32(hdr[4:])))
	step = int(int32(binary.BigEndian.Uint32(hdr[8:])))
	size = int(int32(binary.BigEndian.Uint32(hdr[12:])))
	if size < 0 || uint32(size) > length-(frameHeaderLen-4) {
		return 0, 0, 0, nil, fmt.Errorf("transport: frame data size %d inconsistent with length %d", size, length)
	}
	// 8-aligned, so a flat fragment frame laid at an 8-aligned payload offset
	// is decoded in place. Memory follows the bytes that arrive, not the
	// length a header claims: the first read takes at most 1<<firstClass
	// bytes and the buffer doubles as it fills. Every payload up to
	// 1<<maxClass lies in a pooled class buffer, so the receiver's Release
	// recycles it — fragment frames included, once nothing lives in them.
	n := int(length - (frameHeaderLen - 4))
	if n == 0 {
		return frag, step, size, []byte{}, nil // a nil Frame means "link failed" to the engine
	}
	payload = getFrame(min(n, 1<<firstClass))
	for got := 0; ; {
		if _, err := io.ReadFull(c.br, payload[got:]); err != nil {
			return 0, 0, 0, nil, err
		}
		if got = len(payload); got == n {
			return frag, step, size, payload, nil
		}
		var grown []byte
		if next := min(n, 2*got); next <= 1<<maxClass {
			grown = getFrame(next)
		} else {
			grown = graph.AlignedBuf(next)
		}
		copy(grown, payload)
		putFrame(payload)
		payload = grown
	}
}

func handshakeCoordinator(cn *conn, index, n int, window time.Duration, deadline time.Time) error {
	cn.nc.SetDeadline(deadline)
	defer cn.nc.SetDeadline(time.Time{})
	var hello [8]byte
	if _, err := io.ReadFull(cn.br, hello[:]); err != nil {
		return err
	}
	if string(hello[:4]) != magic {
		return fmt.Errorf("bad magic %q", hello[:4])
	}
	if v := binary.BigEndian.Uint32(hello[4:]); v != version {
		return fmt.Errorf("protocol version %d, want %d", v, version)
	}
	var resp [16]byte
	binary.BigEndian.PutUint32(resp[0:], uint32(index))
	binary.BigEndian.PutUint32(resp[4:], uint32(n))
	binary.BigEndian.PutUint32(resp[8:], uint32(window/time.Millisecond))
	// resp[12:16] reserved
	_, err := cn.nc.Write(resp[:])
	return err
}

func handshakeWorker(cn *conn, deadline time.Time) (index, n int, window time.Duration, err error) {
	cn.nc.SetDeadline(deadline)
	defer cn.nc.SetDeadline(time.Time{})
	var hello [8]byte
	copy(hello[:4], magic)
	binary.BigEndian.PutUint32(hello[4:], version)
	if _, err = cn.nc.Write(hello[:]); err != nil {
		return 0, 0, 0, err
	}
	var resp [16]byte
	if _, err := io.ReadFull(cn.br, resp[:]); err != nil {
		return 0, 0, 0, err
	}
	index = int(binary.BigEndian.Uint32(resp[0:]))
	n = int(binary.BigEndian.Uint32(resp[4:]))
	window = time.Duration(binary.BigEndian.Uint32(resp[8:])) * time.Millisecond
	if n <= 0 || index < 0 || index >= n {
		return 0, 0, 0, fmt.Errorf("bad handshake response: index %d of %d", index, n)
	}
	return index, n, window, nil
}
