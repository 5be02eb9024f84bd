package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"grape/internal/graph"
	"grape/internal/partition"
)

// Update batches are the unit of traffic metering: the engine charges
// len(appendBatch(...)) as the Size of every data message on a wire
// transport, so "bytes" in metrics.Stats is exactly the encoded length of
// the update-parameter payloads (framing overhead excluded, mirroring the
// in-process accounting which also counts payloads only).

// appendBatch appends the encoding of a batch of update-parameter changes:
// uvarint count, then per update a uvarint position followed by the value in
// its type's wire format (value.go). No batch names a vertex ID: the position
// is one both ends share — a border position in a reply, a dense index
// everywhere else.
func appendBatch[V any](k *valueKind[V], buf []byte, ups []update[V]) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ups)))
	for _, u := range ups {
		buf = k.codec.AppendVal(binary.AppendUvarint(buf, uint64(u.at)), u.val)
	}
	return buf
}

// decodeBatch decodes a batch written by appendBatch from the front of data
// into ups[:0] (a receiver passes the batch it is done with), returning the
// updates and the number of bytes consumed, its positions vetted as
// positions{n, ascending} says.
func decodeBatch[V any](k *valueKind[V], ups []update[V], data []byte, n int, ascending bool) ([]update[V], int, error) {
	br, err := openBatch(k, data)
	if err != nil {
		return nil, 0, err
	}
	at := positions{n: n, ascending: ascending}
	ups = slices.Grow(ups[:0], br.count)
	for range br.count {
		key, v, err := br.next()
		if err != nil {
			return nil, 0, err
		}
		i, err := at.check(key)
		if err != nil {
			return nil, 0, err
		}
		ups = append(ups, update[V]{at: i, val: v})
	}
	return ups, br.pos, nil
}

// positions vets the positions of one batch: each must lie below n and, when
// ascending is set, above the one before. A position outside the receiver's
// fragment or out of its sender's order is a corrupt or hostile frame, which
// must reach neither a fragment's arrays nor the fold.
type positions struct {
	n         int
	ascending bool
	next      uint64
}

func (p *positions) check(key uint64) (int32, error) {
	if key < p.next || key >= uint64(p.n) {
		return 0, fmt.Errorf("engine: update at position %d, outside [%d, %d)", key, p.next, p.n)
	}
	if p.ascending {
		p.next = key + 1
	}
	return int32(key), nil
}

// batchReader is the one batch reader: a count, then count (key, value)
// pairs, read one pair per next. pos is the bytes of data consumed so far.
type batchReader[V any] struct {
	c     Codec[V]
	data  []byte
	pos   int
	count int
}

// openBatch reads the count of the batch at the front of data, checked
// against the bytes left — an update takes two — before anything is sized
// from it.
func openBatch[V any](k *valueKind[V], data []byte) (batchReader[V], error) {
	br := batchReader[V]{c: k.codec, data: data}
	n, err := graph.ReadUvarint(data, &br.pos)
	if err != nil {
		return br, err
	}
	if n > uint64(len(data)-br.pos)/2 {
		return br, fmt.Errorf("engine: %d updates claimed in %d bytes", n, len(data)-br.pos)
	}
	br.count = int(n)
	if k.arena != nil && n > 0 {
		br.c = k.arena(len(data) - br.pos)
	}
	return br, nil
}

func (br *batchReader[V]) next() (key uint64, v V, err error) {
	if key, err = graph.ReadUvarint(br.data, &br.pos); err != nil {
		return 0, v, err
	}
	v, used, err := br.c.DecodeVal(br.data[br.pos:])
	if err != nil {
		return 0, v, err
	}
	br.pos += used
	return key, v, nil
}

// ended fails a frame that runs on past its last section.
func ended(what string, frame []byte, pos int) error {
	if pos != len(frame) {
		return fmt.Errorf("engine: %d bytes after the end of a %s frame", len(frame)-pos, what)
	}
	return nil
}

// padded returns the 8-aligned frame offset a fragment starts at after pos,
// failing a frame that ends before it or has anything but zeros in between.
func padded(what string, frame []byte, pos int) (int, error) {
	var pad [8]byte
	end := graph.Align8(pos)
	if end > len(frame) || !bytes.Equal(frame[pos:end], pad[:end-pos]) {
		return 0, fmt.Errorf("engine: %s frame truncated or unpadded before its fragment", what)
	}
	return end, nil
}

// Edge-update frames carry graph mutations (session update batches) across
// process boundaries — the socket substrate's half of incremental serving.
// The format is value-independent, so one implementation covers every
// program: uvarint count, then per update a uvarint From, uvarint To, the
// weight as 8 fixed little-endian bytes (floats do not varint well), a
// length-prefixed label, and a delete flag byte (0 = insert, 1 = delete).

// AppendEdgeUpdates appends the encoding of a session update batch to buf.
func AppendEdgeUpdates(buf []byte, ups []EdgeUpdate) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ups)))
	for _, u := range ups {
		buf = binary.AppendUvarint(buf, uint64(u.From))
		buf = binary.AppendUvarint(buf, uint64(u.To))
		buf = f64Codec{}.AppendVal(buf, u.W)
		buf = binary.AppendUvarint(buf, uint64(len(u.Label)))
		buf = boolCodec{}.AppendVal(append(buf, u.Label...), u.Del)
	}
	return buf
}

// DecodeEdgeUpdates decodes a batch encoded by AppendEdgeUpdates from the
// front of data, returning the updates and the number of bytes consumed.
func DecodeEdgeUpdates(data []byte) ([]EdgeUpdate, int, error) {
	pos := 0
	n, err := graph.ReadUvarint(data, &pos)
	if err != nil {
		return nil, 0, err
	}
	var ups []EdgeUpdate
	for i := uint64(0); i < n; i++ {
		var u EdgeUpdate
		from, err := graph.ReadUvarint(data, &pos)
		if err != nil {
			return nil, 0, err
		}
		to, err := graph.ReadUvarint(data, &pos)
		if err != nil {
			return nil, 0, err
		}
		u.From, u.To = graph.ID(from), graph.ID(to)
		var used int
		if u.W, used, err = (f64Codec{}).DecodeVal(data[pos:]); err != nil {
			return nil, 0, err
		}
		pos += used
		if u.Label, err = graph.ReadString(data, &pos); err != nil {
			return nil, 0, err
		}
		if u.Del, used, err = (boolCodec{}).DecodeVal(data[pos:]); err != nil {
			return nil, 0, err
		}
		pos += used
		ups = append(ups, u)
	}
	return ups, pos, nil
}

// Worker-command frame: kind byte, then the update batch — IncEval's, empty
// for every other kind — naming each update by its dense index in the
// receiving fragment's graph. encodeCmd writes it over buf, the one frame
// buffer its sender keeps (see mpi.Envelope); it also returns the encoded
// length of the update batch alone — the metered data size of the message.

func encodeCmd[V any](k *valueKind[V], buf []byte, cmd workerCmd[V]) (frame []byte, dataLen int) {
	frame = appendBatch(k, append(buf[:0], byte(cmd.kind)), cmd.updates)
	if len(cmd.updates) > 0 {
		dataLen = len(frame) - 1 // a bare count is control, not data
	}
	return frame, dataLen
}

// decodeCmd decodes a command for a fragment of n vertices, of a kind a wire
// worker is sent other than adopt (decodeAdopt), its update batch into
// ups[:0]; nothing aliases the frame.
func decodeCmd[V any](k *valueKind[V], ups []update[V], frame []byte, n int) (workerCmd[V], error) {
	var cmd workerCmd[V]
	if len(frame) == 0 {
		return cmd, errors.New("engine: empty command frame")
	}
	if cmd.kind = cmdKind(frame[0]); cmd.kind == cmdLocalInc || cmd.kind >= cmdAdopt {
		return cmd, fmt.Errorf("engine: command kind %d is never sent over a wire", frame[0])
	}
	ups, used, err := decodeBatch(k, ups, frame[1:], n, false)
	if err != nil {
		return cmd, err
	}
	if len(ups) > 0 && cmd.kind != cmdIncEval {
		return cmd, fmt.Errorf("engine: command kind %d carries %d updates", cmd.kind, len(ups))
	}
	cmd.updates = ups
	return cmd, ended("command", frame, 1+used)
}

// Adopt frame (coordinator → worker, recovery): kind byte, uvarint owed
// superstep, uvarint replay-step count, then per replay step a uvarint
// superstep number and its update batch, named by dense index in the adopted
// fragment's graph; then zero padding to the next 8-aligned frame offset and
// the fragment frame, which runs to the end (see the setup frame for why).
// Adopt frames are control traffic (metered size 0): the checkpoint records
// they carry are copies of updates the run already paid for.

func encodeAdopt[V any](k *valueKind[V], f *partition.Fragment, steps []replayStep[V], owe int) []byte {
	frame := []byte{byte(cmdAdopt)}
	frame = binary.AppendUvarint(frame, uint64(owe))
	frame = binary.AppendUvarint(frame, uint64(len(steps)))
	for _, st := range steps {
		frame = binary.AppendUvarint(frame, uint64(st.step))
		frame = appendBatch(k, frame, st.updates)
	}
	return partition.AppendFragment(graph.AppendSection(frame, 0, nil), f)
}

// decodeAdopt decodes an adopt frame: the fragment, which aliases the frame,
// and the replay log addressed into it — the fragment comes last, so the
// log's indices are range-checked once it has decoded.
func decodeAdopt[V any](k *valueKind[V], frame []byte) (*adoptCmd[V], error) {
	ad := &adoptCmd[V]{}
	pos := 1
	owe, err := graph.ReadUvarint(frame, &pos)
	if err != nil {
		return nil, err
	}
	ad.owe = int(owe)
	count, err := graph.ReadUvarint(frame, &pos)
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < count; i++ {
		step, err := graph.ReadUvarint(frame, &pos)
		if err != nil {
			return nil, err
		}
		ups, used, err := decodeBatch(k, nil, frame[pos:], math.MaxInt32, false)
		if err != nil {
			return nil, err
		}
		pos += used
		ad.steps = append(ad.steps, replayStep[V]{step: int(step), updates: ups})
	}
	end, err := padded("adopt", frame, pos)
	if err != nil {
		return nil, err
	}
	frag, used, err := partition.DecodeFragment(frame[end:])
	if err != nil {
		return nil, fmt.Errorf("engine: decoding adopted fragment: %w", err)
	}
	for _, st := range ad.steps {
		for _, u := range st.updates {
			if int(u.at) >= frag.G.NumVertices() {
				return nil, fmt.Errorf("engine: replayed update at position %d, of %d", u.at, frag.G.NumVertices())
			}
		}
	}
	ad.frag = frag
	return ad, ended("adopt", frame, end+used)
}

// Worker-reply frame: the flushed change batch, named by border position in
// the sender's fragment and ascending as flush emits it, the superstep's work
// units, the keep-active flag, the error string ("" = nil), and the worker's
// compute/apply nanoseconds for the flight recorder. encodeReply also returns
// the encoded length of the change batch — the metered data size; the timing
// tail is framing overhead and never counts toward comm bytes.

func encodeReply[V any](k *valueKind[V], buf []byte, rep workerReply[V]) (frame []byte, dataLen int) {
	frame = appendBatch(k, buf[:0], rep.changes)
	if len(rep.changes) > 0 {
		dataLen = len(frame)
	}
	return appendReplyTail(frame, rep), dataLen
}

// appendReplyTail appends everything of a reply frame after its change batch.
func appendReplyTail[V any](frame []byte, rep workerReply[V]) []byte {
	frame = boolCodec{}.AppendVal(binary.AppendVarint(frame, rep.work), rep.active)
	msg := ""
	if rep.err != nil {
		msg = rep.err.Error()
		if msg == "" {
			msg = "worker error"
		}
	}
	frame = binary.AppendUvarint(frame, uint64(len(msg)))
	frame = append(frame, msg...)
	frame = binary.AppendUvarint(frame, uint64(rep.computeNS))
	return binary.AppendUvarint(frame, uint64(rep.applyNS))
}

// decodeReply decodes the reply of a fragment with nb border vertices, its
// change batch into ups[:0]; nothing aliases the frame.
func decodeReply[V any](k *valueKind[V], ups []update[V], frame []byte, nb int) (workerReply[V], error) {
	var rep workerReply[V]
	changes, pos, err := decodeBatch(k, ups, frame, nb, true)
	if err != nil {
		return rep, err
	}
	rep.changes = changes
	work, err := graph.ReadUvarint(frame, &pos)
	if err != nil {
		return rep, err
	}
	rep.work = int64(work>>1) ^ -int64(work&1) // zig-zag, as AppendVarint wrote it
	active, n, err := boolCodec{}.DecodeVal(frame[pos:])
	if err != nil {
		return rep, err
	}
	rep.active, pos = active, pos+n
	msg, err := graph.ReadString(frame, &pos)
	if err != nil {
		return rep, err
	}
	if msg != "" {
		rep.err = errors.New(msg)
	}
	compute, err := graph.ReadUvarint(frame, &pos)
	if err != nil {
		return rep, err
	}
	apply, err := graph.ReadUvarint(frame, &pos)
	if err != nil {
		return rep, err
	}
	rep.computeNS = int64(compute)
	rep.applyNS = int64(apply)
	return rep, ended("reply", frame, pos)
}

// Partial-result frame (worker → coordinator after the fixpoint): status
// byte (1 = ok, 0 = failed), then the uvarint length of either the program's
// encoded partial answer or an error string, then that, to the frame's end.
// The body is written first, partialHead bytes into buf, and the head laid
// right up against it once its length is known.

const partialHead = 1 + binary.MaxVarintLen64

// encodePartialFrame heads the body buf[partialHead:] (or err's message) and
// returns the frame, a tail of buf.
func encodePartialFrame(buf []byte, err error) []byte {
	status := byte(1)
	if err != nil {
		status, buf = 0, append(buf[:partialHead], err.Error()...)
	}
	var head [partialHead]byte
	head[0] = status
	n := 1 + binary.PutUvarint(head[1:], uint64(len(buf)-partialHead))
	copy(buf[partialHead-n:], head[:n])
	return buf[partialHead-n:]
}

func decodePartialFrame(frame []byte) ([]byte, error) {
	if len(frame) == 0 {
		return nil, errors.New("engine: empty partial-result frame")
	}
	if frame[0] > 1 {
		return nil, fmt.Errorf("engine: bad status %d in partial-result frame", frame[0])
	}
	pos := 1
	n, err := graph.ReadUvarint(frame, &pos)
	if err != nil {
		return nil, err
	}
	if uint64(len(frame)-pos) != n {
		return nil, fmt.Errorf("engine: partial-result frame of %d bytes claims a body of %d", len(frame), n)
	}
	body := frame[pos:]
	if frame[0] == 0 {
		return nil, errors.New(string(body))
	}
	return body, nil
}

// Setup frame (coordinator → worker, first frame of a run): program name,
// program-encoded query, the run deadline as microseconds since the Unix
// epoch (0 = unbounded; this is how a coordinator-side context deadline
// propagates into the worker process); then zero padding to the next
// 8-aligned frame offset and the worker's fragment frame, which runs to the
// end. The transport delivers payloads in 8-aligned buffers, so the fragment
// lies aligned on the worker and partition.DecodeFragment serves it from
// where it lies.

// encodeSetup encodes a setup frame into buf, which it first grows, if it
// lacks room, to exactly the frame's length: one allocation, however large
// the fragment.
func encodeSetup(buf []byte, name string, query []byte, deadlineMicros int64, f *partition.Fragment) []byte {
	var varint [binary.MaxVarintLen64]byte
	head := len(name) + len(query)
	for _, v := range [...]uint64{uint64(len(name)), uint64(len(query)), uint64(deadlineMicros)} {
		head += len(binary.AppendUvarint(varint[:0], v))
	}
	size := partition.MeasureFrame(f)
	if n := graph.Align8(head) + size.Len(); cap(buf) < n {
		buf = make([]byte, 0, n)
	}
	frame := binary.AppendUvarint(buf[:0], uint64(len(name)))
	frame = append(frame, name...)
	frame = binary.AppendUvarint(frame, uint64(len(query)))
	frame = append(frame, query...)
	frame = binary.AppendUvarint(frame, uint64(deadlineMicros))
	return partition.AppendFragmentSized(graph.AppendSection(frame, 0, nil), f, size)
}

// decodeSetup decodes a setup frame; the fragment aliases the frame.
func decodeSetup(frame []byte) (name string, query []byte, deadlineMicros int64, frag *partition.Fragment, err error) {
	pos := 0
	if name, err = graph.ReadString(frame, &pos); err != nil {
		return "", nil, 0, nil, err
	}
	n, err := graph.ReadUvarint(frame, &pos)
	if err != nil {
		return "", nil, 0, nil, err
	}
	if uint64(len(frame)-pos) < n {
		return "", nil, 0, nil, errors.New("engine: truncated setup frame")
	}
	query = frame[pos : pos+int(n)]
	pos += int(n)
	dl, err := graph.ReadUvarint(frame, &pos)
	if err != nil {
		return "", nil, 0, nil, err
	}
	end, err := padded("setup", frame, pos)
	if err != nil {
		return "", nil, 0, nil, err
	}
	frag, used, err := partition.DecodeFragment(frame[end:])
	if err != nil {
		return "", nil, 0, nil, fmt.Errorf("engine: decoding fragment: %w", err)
	}
	return name, query, int64(dl), frag, ended("setup", frame, end+used)
}
