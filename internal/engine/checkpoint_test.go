package engine

import (
	"testing"

	"grape/internal/graph"
	"grape/internal/partition"
)

// TestReplyRejectsTruncation: there is one protocol version, so a reply cut
// anywhere — in particular before its compute/apply timing tail, the shape of
// a pre-timing worker's reply — is a decode error.
func TestReplyRejectsTruncation(t *testing.T) {
	f := matching(t, 1).Fragments[0] // vertex 1 is its one border vertex
	reply, _ := encodeReply(kindFor[float64](), nil, workerReply[float64]{changes: []update[float64]{{at: 0, val: 2}}, work: 3, active: true, computeNS: 40, applyNS: 5})
	for cut := 0; cut < len(reply); cut++ {
		if _, err := decodeReply(kindFor[float64](), nil, reply[:cut], len(f.BorderIndices())); err == nil {
			t.Fatalf("reply truncated at %d of %d accepted", cut, len(reply))
		}
	}
	if rep, err := decodeReply(kindFor[float64](), nil, reply, len(f.BorderIndices())); err != nil || rep.computeNS != 40 || rep.applyNS != 5 || len(rep.changes) != 1 {
		t.Fatalf("intact reply: %+v, %v", rep, err)
	}
}

func TestCheckpointRejectsOutOfOrderEpoch(t *testing.T) {
	g := graph.New()
	g.AddVertex(0, "")
	layout := partition.Build(g, partition.NewAssignment(g, 1))
	c := newCheckpoint(declared(VarSpec[float64]{}), layout)
	fold := newFoldState(declared(VarSpec[float64]{}), layout)
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
