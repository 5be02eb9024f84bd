package graph_test

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"grape/internal/gen"
	"grape/internal/graph"
	"grape/internal/partition"
)

// propOracle is what every vertex's properties should be, by ID; a vertex it
// does not name has none.
type propOracle map[graph.ID][]string

func (o propOracle) clone() propOracle {
	c := make(propOracle, len(o))
	for id, ps := range o {
		c[id] = slices.Clone(ps)
	}
	return c
}

// checkColumn holds every vertex's PropsAt and Props to the oracle: equal
// lists, nil for a vertex with none, capped windows.
func checkColumn(t *testing.T, name string, g *graph.Graph, want propOracle) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for i, id := range g.Vertices() {
		got := g.PropsAt(int32(i))
		if !slices.Equal(got, want[id]) || len(got) == 0 && got != nil || len(got) != cap(got) {
			t.Fatalf("%s: vertex %d has properties %q (cap %d), want %q", name, id, got, cap(got), want[id])
		}
		if by := g.Props(id); !slices.Equal(by, got) {
			t.Fatalf("%s: Props(%d) = %q, PropsAt = %q", name, id, by, got)
		}
	}
}

// keywordGraph is a SocialCommerce graph — its products carry a property
// each from the Builder — decorated by AttachKeywords, with the oracle worked
// out independently: the products' names, then the keyword draws replayed
// vertex by vertex, a vertex that draws none keeping what it had.
func keywordGraph(seed int64) (*graph.Graph, propOracle) {
	const people, products = 300, 6
	g := gen.SocialCommerce(gen.SocialCommerceConfig{People: people, Products: products, Follows: 3, AdoptP: 0.7, Seed: seed})
	want := propOracle{}
	for j := range products {
		want[graph.ID(people+j)] = []string{fmt.Sprintf("product_%d", j)}
	}
	vocab := []string{"db", "graph", "ml", "sys"}
	gen.AttachKeywords(g, vocab, 2, 0.2, seed)
	rng := rand.New(rand.NewSource(seed))
	for _, id := range g.Vertices() {
		var ps []string
		for range 2 {
			if rng.Float64() < 0.2 {
				ps = append(ps, vocab[rng.Intn(len(vocab))])
			}
		}
		if len(ps) > 0 {
			want[id] = ps
		}
	}
	return g, want
}

// flatGoldens are the SHA-256 prefixes of AppendFlat of every graph
// TestPropertyColumnEveryConstructor builds, as the per-vertex property lists
// the column replaced encoded them: the column changes no byte of the wire
// form. The hops1 fragments were pinned again when a 1-hop cut stopped
// keeping the edges between outer copies that close no triangle with an
// inner vertex; the hops0 fragments are as the lists encoded them.
var flatGoldens = map[string]string{
	"builder":                        "58873d95f7a962a8",
	"road/SetProps emptied":          "914cc458898b9000",
	"road/SetProps":                  "bf59238664db987a",
	"road/Splice without properties": "678f07c51660842b",
	"road/Splice":                    "df88be47754d8f44",
	"seed1/AttachKeywords":           "eaa05cbf982446b7",
	"seed1/Clone+SetProps+AddProp":   "99fb30ed75dacb8d",
	"seed1/DecodeFlat":               "eaa05cbf982446b7",
	"seed1/Splice":                   "6b2b6e74bed19372",
	"seed1/Subgraph0":                "ffab00333720a87e",
	"seed1/Subgraph1":                "fce3e93556b6c5bb",
	"seed1/Subgraph2":                "24e3fb41958ffa2a",
	"seed1/hops0/fragment0":          "468df9a3631882d9",
	"seed1/hops0/fragment1":          "b8b1c0f3e6a4c24f",
	"seed1/hops0/fragment2":          "44b7ed11b194dfe6",
	"seed1/hops0/fragment3":          "a59fce3708d757eb",
	"seed1/hops1/fragment0":          "109bfb66e776d50b",
	"seed1/hops1/fragment1":          "60eefd3e08d8af98",
	"seed1/hops1/fragment2":          "4e9f4c707189d2bf",
	"seed1/hops1/fragment3":          "69c07634a2b94860",
	"seed2/AttachKeywords":           "c39d5b83a32c9e82",
	"seed2/Clone+SetProps+AddProp":   "93d84d7d04ac1619",
	"seed2/DecodeFlat":               "c39d5b83a32c9e82",
	"seed2/Splice":                   "f49984d68fe0b690",
	"seed2/Subgraph0":                "3dd37daede5b11e3",
	"seed2/Subgraph1":                "5af0c7c7e0b60b19",
	"seed2/Subgraph2":                "68328269df58379d",
	"seed2/hops0/fragment0":          "8c198b41fc567b5b",
	"seed2/hops0/fragment1":          "c7205b1e4100cc0c",
	"seed2/hops0/fragment2":          "e0af443b6e2d337f",
	"seed2/hops0/fragment3":          "46edc0f879180079",
	"seed2/hops1/fragment0":          "401c8d7db09e0554",
	"seed2/hops1/fragment1":          "2197306edaf4598e",
	"seed2/hops1/fragment2":          "19ed46aaa7394b6d",
	"seed2/hops1/fragment3":          "17718c31841c3429",
	"seed3/AttachKeywords":           "bd3e8bba65e52909",
	"seed3/Clone+SetProps+AddProp":   "4c772fd988485358",
	"seed3/DecodeFlat":               "bd3e8bba65e52909",
	"seed3/Splice":                   "d21a3dd49dc9535f",
	"seed3/Subgraph0":                "137a680943984b06",
	"seed3/Subgraph1":                "016f45ecb691ce5e",
	"seed3/Subgraph2":                "4409c6c32df9d6f0",
	"seed3/hops0/fragment0":          "cccbf8b4ddfcd8cf",
	"seed3/hops0/fragment1":          "2ffbff7e1efe5fc8",
	"seed3/hops0/fragment2":          "2e361a6d10505ab8",
	"seed3/hops0/fragment3":          "6ebd846b8a0078ee",
	"seed3/hops1/fragment0":          "ee4139ed25d2a236",
	"seed3/hops1/fragment1":          "6c86a08fcf8b8956",
	"seed3/hops1/fragment2":          "e25e5b531abd6fe6",
	"seed3/hops1/fragment3":          "5a078c0eaf3a8a99",
}

// TestPropertyColumnEveryConstructor holds the property column every
// constructor builds to an oracle map: Builder, AttachKeywords (seeds 1–3),
// Subgraph, Build and BuildExpanded fragments, Splice appending vertices with
// and without properties (onto a graph with a column and one without),
// DecodeFlat(AppendFlat(g)), Clone, SetProps, AddProp and MapProps. Each
// result's wire form must equal its golden.
func TestPropertyColumnEveryConstructor(t *testing.T) {
	got := map[string]string{}
	check := func(name string, g *graph.Graph, want propOracle) {
		t.Helper()
		checkColumn(t, name, g, want)
		got[name] = fmt.Sprintf("%x", sha256.Sum256(graph.AppendFlat(nil, g)))[:16]
	}

	// Builder: lists set, appended to, emptied, and never set.
	b := graph.NewBuilder()
	bw := propOracle{}
	for i := range 40 {
		id := graph.ID(i * 3)
		b.AddVertex(id, []string{"", "a"}[i%2])
		switch i % 4 {
		case 0:
			b.SetProps(id, []string{"x", "y"})
			bw[id] = []string{"x", "y"}
		case 1:
			b.AddProp(id, "z")
			b.AddProp(id, "w")
			bw[id] = []string{"z", "w"}
		case 2:
			b.SetProps(id, []string{"gone"})
			b.SetProps(id, nil)
		}
		if i > 0 {
			b.AddEdge(id, graph.ID((i-1)*3), 1)
		}
	}
	check("builder", b.Graph(), bw)

	for seed := int64(1); seed <= 3; seed++ {
		g, want := keywordGraph(seed)
		name := fmt.Sprintf("seed%d", seed)
		check(name+"/AttachKeywords", g, want)

		sb := graph.NewSubgraphBuilder(g)
		for k := range 3 {
			var seeds []int32
			for i := int32(k); i < int32(g.NumVertices()); i += 3 {
				seeds = append(seeds, i)
			}
			check(fmt.Sprintf("%s/Subgraph%d", name, k), sb.Subgraph(seeds, nil), want)
		}
		asg, err := partition.Hash{}.Partition(g, 4)
		if err != nil {
			t.Fatal(err)
		}
		for hops, l := range []*partition.Layout{partition.Build(g, asg), partition.BuildExpanded(g, asg, 1)} {
			for _, f := range l.Fragments {
				check(fmt.Sprintf("%s/hops%d/fragment%d", name, hops, f.Index), f.G, want)
			}
		}

		dec, _, err := graph.DecodeFlat(graph.AppendFlat(nil, g))
		if err != nil {
			t.Fatal(err)
		}
		check(name+"/DecodeFlat", dec, want)

		// Splice onto a clone, which must leave g as it was.
		var batch graph.Batch
		batch.AddVertex(5000, "fresh", []string{"new", "kw"})
		batch.AddVertex(5001, "", nil)
		batch.AddVertex(5002, "", []string{"one"})
		batch.AddEdge(5000, g.IDAt(0), 1, "")
		batch.AddEdge(g.IDAt(1), 5002, 2, "x")
		spliced, _, err := graph.Splice(g.Clone(), &batch)
		if err != nil {
			t.Fatal(err)
		}
		sw := want.clone()
		sw[5000], sw[5002] = []string{"new", "kw"}, []string{"one"}
		check(name+"/Splice", spliced, sw)
		checkColumn(t, name+"/Splice source", g, want)

		// Clone, then SetProps and AddProp on the clone only.
		c := g.Clone()
		cw := want.clone()
		first, last := c.IDAt(0), c.IDAt(int32(c.NumVertices()-1))
		c.SetProps(first, []string{"set"})
		c.AddProp(last, "added")
		c.AddProp(first, "more")
		cw[first], cw[last] = []string{"set", "more"}, append(cw[last], "added")
		check(name+"/Clone+SetProps+AddProp", c, cw)
		checkColumn(t, name+"/Clone source", g, want)
	}

	// Splice onto a graph without a column: only the added vertices have
	// properties.
	bare := gen.RoadGrid(6, 6, 1)
	var batch graph.Batch
	batch.AddVertex(900, "", []string{"p", "q"})
	batch.AddVertex(901, "", nil)
	spliced, _, err := graph.Splice(bare.Clone(), &batch)
	if err != nil {
		t.Fatal(err)
	}
	check("road/Splice", spliced, propOracle{900: {"p", "q"}})
	var none graph.Batch
	none.AddVertex(902, "", nil)
	spliced, _, err = graph.Splice(bare.Clone(), &none)
	if err != nil {
		t.Fatal(err)
	}
	check("road/Splice without properties", spliced, nil)

	// SetProps emptying the only list leaves a graph with no properties.
	one := gen.RoadGrid(3, 3, 1)
	v := one.IDAt(4)
	one.SetProps(v, []string{"only"})
	check("road/SetProps", one, propOracle{v: {"only"}})
	one.SetProps(v, nil)
	check("road/SetProps emptied", one, nil)

	for name, h := range got {
		if want, ok := flatGoldens[name]; !ok || h != want {
			t.Errorf("%s: wire form %s, golden %q", name, h, want)
		}
	}
	if len(got) != len(flatGoldens) {
		t.Errorf("%d graphs checked, %d goldens", len(got), len(flatGoldens))
	}
}
