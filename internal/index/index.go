// Package index implements GRAPE's Index Manager (Fig. 2): auxiliary
// structures loaded next to each fragment that sequential algorithms exploit
// directly — the paper's point (3), graph-level optimization, which is hard
// to express in vertex-centric systems. One index is provided: an inverted
// keyword index (property -> vertices) used by Keyword PEval.
package index

import (
	"sort"

	"grape/internal/graph"
)

// Inverted maps each property string to the vertices carrying it, by dense
// vertex index of the indexed graph, ascending.
type Inverted struct {
	byKeyword map[string][]int32
}

// BuildInverted scans g's vertex properties once, in dense-index order, and
// builds the index. A vertex carrying the same keyword multiple times is
// indexed once: its repeats would sit at the tail of the keyword's list.
func BuildInverted(g *graph.Graph) *Inverted {
	ix := &Inverted{byKeyword: make(map[string][]int32)}
	for i := int32(0); int(i) < g.NumVertices(); i++ {
		for _, p := range g.PropsAt(i) {
			if l := ix.byKeyword[p]; len(l) == 0 || l[len(l)-1] != i {
				ix.byKeyword[p] = append(l, i)
			}
		}
	}
	return ix
}

// Lookup returns the dense indices of the vertices carrying keyword w
// (ascending, shared slice — callers must not mutate).
func (ix *Inverted) Lookup(w string) []int32 { return ix.byKeyword[w] }

// Keywords returns all indexed keywords, sorted.
func (ix *Inverted) Keywords() []string {
	ws := make([]string, 0, len(ix.byKeyword))
	for w := range ix.byKeyword {
		ws = append(ws, w)
	}
	sort.Strings(ws)
	return ws
}
