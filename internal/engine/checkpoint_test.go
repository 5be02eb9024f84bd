package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"grape/internal/graph"
	"grape/internal/partition"
)

// f64Codec mirrors the SSSP wire codec shape without importing queries
// (which would cycle): fixed 8-byte IEEE754 values.
type f64Codec struct{}

func (f64Codec) AppendVal(buf []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(buf, math.Float64bits(v))
}

func (f64Codec) DecodeVal(b []byte) (float64, int, error) {
	if len(b) < 8 {
		return 0, 0, fmt.Errorf("short value")
	}
	return math.Float64frombits(binary.BigEndian.Uint64(b)), 8, nil
}

// slotIsID names slot s's vertex s: the epoch frame tests have no layout.
func slotIsID(s int32) graph.ID { return graph.ID(s) }

func TestEpochFrameRoundTrip(t *testing.T) {
	ep := ckptEpoch[float64]{
		recs: []changeRec[float64]{
			{slot: 3, val: 1.5, winner: 0},
			{slot: 7, val: math.Inf(1), winner: 2},
			{slot: 900, val: -0.25, winner: 3},
		},
		active: []bool{true, false, false, true},
	}
	frame := appendEpochFrame[float64](f64Codec{}, nil, ep, slotIsID)
	got, err := decodeEpochFrame[float64](f64Codec{}, frame)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ep.recs, got.recs) || !reflect.DeepEqual(ep.active, got.active) {
		t.Fatalf("epoch mangled:\nwant %+v\ngot  %+v", ep, got)
	}
}

func TestEpochFrameEmpty(t *testing.T) {
	ep := ckptEpoch[float64]{active: []bool{false, false}}
	frame := appendEpochFrame[float64](f64Codec{}, nil, ep, slotIsID)
	got, err := decodeEpochFrame[float64](f64Codec{}, frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.recs) != 0 || !reflect.DeepEqual(ep.active, got.active) {
		t.Fatalf("empty epoch mangled: %+v", got)
	}
}

func TestEpochFrameRejectsTruncation(t *testing.T) {
	ep := ckptEpoch[float64]{
		recs:   []changeRec[float64]{{slot: 1, val: 2, winner: 1}},
		active: []bool{true, true},
	}
	frame := appendEpochFrame[float64](f64Codec{}, nil, ep, slotIsID)
	for cut := 1; cut < len(frame); cut++ {
		if _, err := decodeEpochFrame[float64](f64Codec{}, frame[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(frame))
		}
	}
	// Reply frames likewise: there is one protocol version, so a reply cut
	// anywhere — in particular before its compute/apply timing tail, the
	// shape of a pre-timing worker's reply — is a decode error.
	f := matching(t, 1).Fragments[0] // vertex 1 is its one border vertex
	reply, _ := encodeReply[float64](f64Codec{}, nil, workerReply[float64]{changes: []update[float64]{{at: 0, val: 2}}, work: 3, active: true, computeNS: 40, applyNS: 5}, f.Border())
	for cut := 0; cut < len(reply); cut++ {
		if _, err := decodeReply[float64](f64Codec{}, nil, reply[:cut], f); err == nil {
			t.Fatalf("reply truncated at %d of %d accepted", cut, len(reply))
		}
	}
	if rep, err := decodeReply[float64](f64Codec{}, nil, reply, f); err != nil || rep.computeNS != 40 || rep.applyNS != 5 || len(rep.changes) != 1 {
		t.Fatalf("intact reply: %+v, %v", rep, err)
	}
}

func TestCheckpointRejectsOutOfOrderEpoch(t *testing.T) {
	g := graph.New()
	g.AddVertex(0, "")
	layout := partition.Build(g, partition.NewAssignment(g, 1))
	c := newCheckpoint[float64](VarSpec[float64]{}, layout, nil, nil)
	fold := newFoldState[float64](VarSpec[float64]{}, layout)
	if err := c.append(2, fold, nil); err == nil {
		t.Fatal("epoch 2 accepted before epoch 1")
	}
	if err := c.append(1, fold, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.append(1, fold, nil); err == nil {
		t.Fatal("epoch 1 accepted twice")
	}
}

// decodeEpochFrame is the inverse of appendEpochFrame. Nothing in the engine
// reads epoch frames back — a CheckpointStore only receives them — so the
// decoder lives with the tests that pin the layout.
func decodeEpochFrame[V any](c Codec[V], frame []byte) (ckptEpoch[V], error) {
	var ep ckptEpoch[V]
	pos := 0
	n, err := graph.ReadUvarint(frame, &pos)
	if err != nil {
		return ep, err
	}
	for i := uint64(0); i < n; i++ {
		var rec changeRec[V]
		id, err := graph.ReadUvarint(frame, &pos)
		if err != nil {
			return ep, err
		}
		rec.slot = int32(id)
		v, used, err := c.DecodeVal(frame[pos:])
		if err != nil {
			return ep, err
		}
		pos += used
		rec.val = v
		w, err := graph.ReadUvarint(frame, &pos)
		if err != nil {
			return ep, err
		}
		rec.winner = int(w)
		ep.recs = append(ep.recs, rec)
	}
	workers, err := graph.ReadUvarint(frame, &pos)
	if err != nil {
		return ep, err
	}
	if uint64(len(frame)-pos) < workers {
		return ep, errors.New("engine: truncated checkpoint epoch frame")
	}
	ep.active = make([]bool, workers)
	for i := range ep.active {
		ep.active[i] = frame[pos+i] != 0
	}
	return ep, nil
}
