// Package mpi defines the message-passing substrate between one coordinator
// and n workers — the reproduction's stand-in for the paper's MPI Controller
// (MPICH2 in the C++ prototype). All cross-party traffic flows through a
// Transport, which meters message and byte counts; the communication columns
// of Table 1 are measurements of what crosses it.
//
// Two implementations exist:
//
//   - Bus (this package): the in-process transport. Workers are goroutines,
//     channels replace network sockets, and payloads travel by reference, so
//     byte counts are the engine's per-type estimates (its value table).
//   - transport.Coordinator / transport.WorkerConn (package
//     internal/transport): the wire transport. Workers are separate OS
//     processes connected over TCP or Unix sockets; payloads travel as
//     length-prefixed binary frames in each value type's wire format, so
//     byte counts are the actual encoded lengths.
//
// The engine chooses how to fill an Envelope based on Transport.Wire: wire
// transports require Frame (encoded bytes), the in-process bus carries
// Payload (a Go value).
//
// Receives are context-aware: a party blocked at a superstep barrier
// unblocks the moment its run's context is cancelled or its deadline
// expires, which is how the engine sheds abandoned runs instead of letting
// them converge on dead air (see "Cancellation & deadlines" in
// ARCHITECTURE.md).
package mpi

import (
	"context"
	"fmt"
	"sync/atomic"
)

// Coordinator is the party index of the coordinator P0. Workers are 0..n-1.
const Coordinator = -1

// Envelope is a routed message. Exactly one of Payload and Frame carries the
// content: Payload is an engine-defined Go value (in-process bus), Frame is
// its wire encoding (socket transports). Size is the payload's data size in
// bytes — on the in-process bus the estimate of the engine's value table (a
// size per update-parameter type, internal/engine/value.go), on a wire
// transport the actual encoded length of the data section.
//
// Frame ownership, the rule that lets both ends reuse memory: a Frame handed
// to Send is the caller's again when Send returns (the transport has written
// or copied it), so a sender encodes every frame into one buffer. A Frame
// delivered by Recv is the receiver's until it passes it to Release, which it
// does exactly once, when nothing lives in it any more: a command or reply
// once decoded, a setup or adopt frame — whose fragment is decoded in place —
// once the run on that fragment has returned.
type Envelope struct {
	From    int
	To      int
	Step    int // superstep the message belongs to
	Payload any
	Frame   []byte
	Size    int
}

// Transport connects a coordinator with n workers and meters the data
// traffic crossing it. The engine drives one run over one Transport; both
// the coordinator loop and (for the in-process Bus) the worker goroutines
// speak through it.
type Transport interface {
	// Workers returns the number of workers on the transport.
	Workers() int
	// Send routes e to e.To (Coordinator or a worker index) and meters it
	// when e.Size > 0. Control messages with Size 0 are not counted as
	// communication; the paper's numbers measure data shipped, not BSP
	// barriers.
	Send(e Envelope)
	// Recv blocks until a message for the given party arrives or ctx is
	// done, in which case it returns ctx's error — cancellation and deadline
	// expiry unblock a party waiting at a superstep barrier. Wire transports
	// serve only party == Coordinator (remote workers hold their own
	// WorkerConn); on a broken worker link they deliver an Envelope with a
	// nil Frame whose Payload is the error.
	Recv(ctx context.Context, party int) (Envelope, error)
	// Release hands a Frame that Recv delivered back for reuse (see Envelope).
	Release(frame []byte)
	// Messages returns the number of data messages sent so far.
	Messages() int64
	// Bytes returns the number of data bytes sent so far.
	Bytes() int64
	// AddTraffic meters communication that bypasses Send, e.g. engines that
	// account batched per-vertex messages analytically, or the d-hop
	// fragment replication charged before superstep 1.
	AddTraffic(msgs, bytes int64)
	// Wire reports whether payloads cross a process boundary. When true the
	// engine must fill Envelope.Frame with the program's wire encoding and
	// Size with its measured data length; when false Payload travels by
	// reference and Size falls back to the value type's estimate.
	Wire() bool
}

// Bus is the in-process Transport: it connects a coordinator with n worker
// goroutines over channels. Each party has an unbounded inbox drained by
// Recv. A Bus is single-use per engine run.
type Bus struct {
	n        int
	toWorker []chan Envelope
	toCoord  chan Envelope

	msgs  atomic.Int64
	bytes atomic.Int64
}

var _ Transport = (*Bus)(nil)

// NewBus returns a Bus for n workers. buf sets per-inbox channel capacity;
// engines size it so that a full superstep of traffic never blocks.
func NewBus(n, buf int) *Bus {
	b := &Bus{n: n, toWorker: make([]chan Envelope, n), toCoord: make(chan Envelope, buf)}
	for i := range b.toWorker {
		b.toWorker[i] = make(chan Envelope, buf)
	}
	return b
}

// Workers returns the number of workers on the bus.
func (b *Bus) Workers() int { return b.n }

// Send routes e to e.To (Coordinator or a worker index) and meters it.
// Coordinator-to-worker control messages with Size 0 are not counted as
// communication; the paper's numbers measure data shipped, not BSP barriers.
func (b *Bus) Send(e Envelope) {
	if e.Size > 0 {
		b.msgs.Add(1)
		b.bytes.Add(int64(e.Size))
	}
	if e.To == Coordinator {
		b.toCoord <- e
		return
	}
	if e.To < 0 || e.To >= b.n {
		panic(fmt.Sprintf("mpi: send to unknown party %d", e.To))
	}
	b.toWorker[e.To] <- e
}

// Recv blocks until a message for the given party arrives or ctx is done.
// A context that can never be done (context.Background) reports a nil done
// channel, and that case takes a plain channel receive — the uncancellable
// hot path is exactly what it was before cancellation existed.
func (b *Bus) Recv(ctx context.Context, party int) (Envelope, error) {
	ch := b.toCoord
	if party != Coordinator {
		ch = b.toWorker[party]
	}
	done := ctx.Done()
	if done == nil {
		return <-ch, nil
	}
	select {
	case e := <-ch:
		return e, nil
	case <-done:
		return Envelope{}, ctx.Err()
	}
}

// Release does nothing: the bus carries no frames.
func (b *Bus) Release([]byte) {}

// Messages returns the number of data messages sent so far.
func (b *Bus) Messages() int64 { return b.msgs.Load() }

// Bytes returns the number of data bytes sent so far.
func (b *Bus) Bytes() int64 { return b.bytes.Load() }

// AddTraffic meters communication that bypasses Send, e.g. engines that
// account batched per-vertex messages analytically.
func (b *Bus) AddTraffic(msgs, bytes int64) {
	b.msgs.Add(msgs)
	b.bytes.Add(bytes)
}

// Wire reports that Bus payloads stay in-process.
func (b *Bus) Wire() bool { return false }
