package queries

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"grape/internal/engine"
	"grape/internal/graph"
	"grape/internal/seq"
)

// Wire encodings of the registered query classes' queries and, where
// Assemble needs more than the node variables, partial answers (values travel
// in the engine's value table formats). All round-trip exactly — floats as
// raw IEEE-754 bits, IDs and counts as varints — so a distributed run lands
// on the in-process run's fixpoint in as many supersteps.

// ---- SSSP ----

// EncodeQuery implements engine.WireProgram.
func (SSSP) EncodeQuery(q SSSPQuery) ([]byte, error) {
	return binary.AppendUvarint(nil, uint64(q.Source)), nil
}

// DecodeQuery implements engine.WireProgram.
func (SSSP) DecodeQuery(data []byte) (SSSPQuery, error) {
	src, n := binary.Uvarint(data)
	if n <= 0 {
		return SSSPQuery{}, fmt.Errorf("sssp: bad query encoding")
	}
	return SSSPQuery{Source: graph.ID(src)}, nil
}

// ---- CC ----

// EncodeQuery implements engine.WireProgram (CC has no parameters).
func (CC) EncodeQuery(q CCQuery) ([]byte, error) { return nil, nil }

// DecodeQuery implements engine.WireProgram.
func (CC) DecodeQuery(data []byte) (CCQuery, error) { return CCQuery{}, nil }

// EncodePartial implements engine.PartialCodec: CC's Assemble reads labels
// off the worker's union-find, so the worker materializes one (vertex,
// label) pair per inner vertex.
func (CC) EncodePartial(buf []byte, q CCQuery, ctx *engine.Context[graph.ID]) ([]byte, error) {
	st, ok := ctx.State.(*ccState)
	if !ok {
		return nil, fmt.Errorf("cc: no state to assemble (PEval has not run)")
	}
	g, inner := ctx.Frag.G, ctx.Frag.InnerIndices()
	buf = binary.AppendUvarint(slices.Grow(buf, 8*len(inner)), uint64(len(inner)))
	for _, i := range inner {
		buf = binary.AppendUvarint(buf, uint64(g.IDAt(i)))
		buf = binary.AppendUvarint(buf, uint64(st.rootLabel[st.uf.Find(i)]))
	}
	return buf, nil
}

// DecodePartial implements engine.PartialCodec: reconstitute a degenerate
// ccState (every vertex its own set, already labeled) that Assemble reads
// exactly like the worker's original.
func (CC) DecodePartial(q CCQuery, ctx *engine.Context[graph.ID], data []byte) error {
	g := ctx.Frag.G
	nv := g.NumVertices()
	st := &ccState{
		uf:        seq.NewDenseUnionFind(nv),
		rootLabel: make([]graph.ID, nv),
		rootHas:   make([]bool, nv),
		borderOf:  map[int32][]int32{},
	}
	pos := 0
	n, err := graph.ReadUvarint(data, &pos)
	if err != nil {
		return fmt.Errorf("cc: partial: %w", err)
	}
	for i := uint64(0); i < n; i++ {
		v, err := graph.ReadUvarint(data, &pos)
		if err != nil {
			return fmt.Errorf("cc: partial: %w", err)
		}
		l, err := graph.ReadUvarint(data, &pos)
		if err != nil {
			return fmt.Errorf("cc: partial: %w", err)
		}
		vi, ok := g.Index(graph.ID(v))
		if !ok {
			return fmt.Errorf("cc: partial labels unknown vertex %d", v)
		}
		st.rootLabel[vi] = graph.ID(l)
		st.rootHas[vi] = true
	}
	ctx.State = st
	return nil
}

// ---- Sim ----

// EncodeQuery implements engine.WireProgram: the query is the pattern graph.
func (Sim) EncodeQuery(q SimQuery) ([]byte, error) {
	if q.Pattern == nil {
		return nil, fmt.Errorf("sim: empty pattern")
	}
	return graph.AppendFlat(nil, q.Pattern), nil
}

// DecodeQuery implements engine.WireProgram.
func (Sim) DecodeQuery(data []byte) (SimQuery, error) {
	p, _, err := graph.DecodeFlat(data)
	if err != nil {
		return SimQuery{}, fmt.Errorf("sim: decoding pattern: %w", err)
	}
	return SimQuery{Pattern: p}, nil
}

// ---- SubIso ----

// EncodeQuery implements engine.WireProgram.
func (SubIso) EncodeQuery(q SubIsoQuery) ([]byte, error) {
	if q.Pattern == nil {
		return nil, fmt.Errorf("subiso: empty pattern")
	}
	buf := binary.AppendUvarint(nil, uint64(q.MaxMatches))
	return graph.AppendFlat(buf, q.Pattern), nil
}

// DecodeQuery implements engine.WireProgram.
func (SubIso) DecodeQuery(data []byte) (SubIsoQuery, error) {
	pos := 0
	max, err := graph.ReadUvarint(data, &pos)
	if err != nil {
		return SubIsoQuery{}, fmt.Errorf("subiso: bad query encoding: %w", err)
	}
	p, _, err := graph.DecodeFlat(data[pos:])
	if err != nil {
		return SubIsoQuery{}, fmt.Errorf("subiso: decoding pattern: %w", err)
	}
	return SubIsoQuery{Pattern: p, MaxMatches: int(max)}, nil
}

// EncodePartial implements engine.PartialCodec: the per-fragment match list
// (Context.Partial), each match as its (pattern vertex, data vertex) pairs
// in sorted pattern-vertex order.
func (SubIso) EncodePartial(buf []byte, q SubIsoQuery, ctx *engine.Context[uint8]) ([]byte, error) {
	var matches []seq.Match
	if ctx.Partial != nil {
		matches = ctx.Partial.([]seq.Match)
	}
	if len(matches) > 0 {
		buf = slices.Grow(buf, len(matches)*(1+6*len(matches[0])))
	}
	buf = binary.AppendUvarint(buf, uint64(len(matches)))
	var keys []graph.ID
	for _, m := range matches {
		keys = keys[:0]
		for u := range m {
			keys = append(keys, u)
		}
		slices.Sort(keys)
		buf = binary.AppendUvarint(buf, uint64(len(keys)))
		for _, u := range keys {
			buf = binary.AppendUvarint(buf, uint64(u))
			buf = binary.AppendUvarint(buf, uint64(m[u]))
		}
	}
	return buf, nil
}

// DecodePartial implements engine.PartialCodec.
func (SubIso) DecodePartial(q SubIsoQuery, ctx *engine.Context[uint8], data []byte) error {
	pos := 0
	n, err := graph.ReadUvarint(data, &pos)
	if err != nil {
		return fmt.Errorf("subiso: partial: %w", err)
	}
	matches := []seq.Match{}
	for i := uint64(0); i < n; i++ {
		np, err := graph.ReadUvarint(data, &pos)
		if err != nil {
			return fmt.Errorf("subiso: partial: %w", err)
		}
		if np > uint64(len(data)-pos)/2 {
			return fmt.Errorf("subiso: partial: truncated match of %d pairs", np)
		}
		m := make(seq.Match, np)
		for j := uint64(0); j < np; j++ {
			u, err := graph.ReadUvarint(data, &pos)
			if err != nil {
				return fmt.Errorf("subiso: partial: %w", err)
			}
			v, err := graph.ReadUvarint(data, &pos)
			if err != nil {
				return fmt.Errorf("subiso: partial: %w", err)
			}
			m[graph.ID(u)] = graph.ID(v)
		}
		matches = append(matches, m)
	}
	ctx.Partial = matches
	return nil
}

// ---- Keyword ----

// EncodeQuery implements engine.WireProgram.
func (Keyword) EncodeQuery(q KeywordQuery) ([]byte, error) {
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(len(q.Keywords)))
	for _, w := range q.Keywords {
		buf = binary.AppendUvarint(buf, uint64(len(w)))
		buf = append(buf, w...)
	}
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(q.Bound))
	if q.UseIndex {
		return append(buf, 1), nil
	}
	return append(buf, 0), nil
}

// DecodeQuery implements engine.WireProgram.
func (Keyword) DecodeQuery(data []byte) (KeywordQuery, error) {
	pos := 0
	n, err := graph.ReadUvarint(data, &pos)
	if err != nil {
		return KeywordQuery{}, fmt.Errorf("keyword: bad query encoding: %w", err)
	}
	var q KeywordQuery
	for i := uint64(0); i < n; i++ {
		l, err := graph.ReadUvarint(data, &pos)
		if err != nil {
			return KeywordQuery{}, fmt.Errorf("keyword: bad query encoding: %w", err)
		}
		if uint64(len(data)-pos) < l {
			return KeywordQuery{}, fmt.Errorf("keyword: truncated query encoding")
		}
		q.Keywords = append(q.Keywords, string(data[pos:pos+int(l)]))
		pos += int(l)
	}
	if len(data)-pos < 9 {
		return KeywordQuery{}, fmt.Errorf("keyword: truncated query encoding")
	}
	q.Bound = math.Float64frombits(binary.LittleEndian.Uint64(data[pos:]))
	q.UseIndex = data[pos+8] != 0
	return q, nil
}

// ---- CF ----

// EncodeQuery implements engine.WireProgram.
func (CF) EncodeQuery(q CFQuery) ([]byte, error) {
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(q.Cfg.Factors))
	buf = binary.AppendUvarint(buf, uint64(q.Cfg.Epochs))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(q.Cfg.LR))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(q.Cfg.Reg))
	return binary.AppendVarint(buf, q.Cfg.Seed), nil
}

// DecodeQuery implements engine.WireProgram.
func (CF) DecodeQuery(data []byte) (CFQuery, error) {
	pos := 0
	factors, err := graph.ReadUvarint(data, &pos)
	if err != nil {
		return CFQuery{}, fmt.Errorf("cf: bad query encoding: %w", err)
	}
	epochs, err := graph.ReadUvarint(data, &pos)
	if err != nil {
		return CFQuery{}, fmt.Errorf("cf: bad query encoding: %w", err)
	}
	if len(data)-pos < 16 {
		return CFQuery{}, fmt.Errorf("cf: truncated query encoding")
	}
	lr := math.Float64frombits(binary.LittleEndian.Uint64(data[pos:]))
	reg := math.Float64frombits(binary.LittleEndian.Uint64(data[pos+8:]))
	pos += 16
	seed, n := binary.Varint(data[pos:])
	if n <= 0 {
		return CFQuery{}, fmt.Errorf("cf: bad query encoding: truncated seed")
	}
	return CFQuery{Cfg: seq.CFConfig{Factors: int(factors), Epochs: int(epochs), LR: lr, Reg: reg, Seed: seed}}, nil
}

// EncodePartial implements engine.PartialCodec: CF's Assemble reads the
// trained factor table and the inner-user list off the worker state, so both
// ship (factors of outer items included — the global RMSE evaluates each
// rating under its owner fragment's model).
func (CF) EncodePartial(buf []byte, q CFQuery, ctx *engine.Context[[]float64]) ([]byte, error) {
	st, ok := ctx.State.(*cfState)
	if !ok {
		return nil, fmt.Errorf("cf: no state to assemble (PEval has not run)")
	}
	g := ctx.Frag.G
	idx := make([]int32, 0, len(st.factors))
	for i, vec := range st.factors {
		if vec != nil {
			idx = append(idx, int32(i))
		}
	}
	slices.SortFunc(idx, func(a, b int32) int { return cmp.Compare(g.IDAt(a), g.IDAt(b)) })
	c := engine.ValueCodec[[]float64](0)
	buf = binary.AppendUvarint(slices.Grow(buf, len(idx)*(4+8*q.Cfg.Factors)+4*len(st.users)), uint64(len(idx)))
	for _, i := range idx {
		buf = binary.AppendUvarint(buf, uint64(g.IDAt(i)))
		buf = c.AppendVal(buf, st.factors[i])
	}
	buf = binary.AppendUvarint(buf, uint64(len(st.users)))
	for _, u := range st.users {
		buf = binary.AppendUvarint(buf, uint64(g.IDAt(u)))
	}
	return buf, nil
}

// DecodePartial implements engine.PartialCodec.
func (CF) DecodePartial(q CFQuery, ctx *engine.Context[[]float64], data []byte) error {
	g := ctx.Frag.G
	st := &cfState{factors: make([][]float64, g.NumVertices())}
	pos := 0
	n, err := graph.ReadUvarint(data, &pos)
	if err != nil {
		return fmt.Errorf("cf: partial: %w", err)
	}
	c := engine.ValueCodec[[]float64](len(data))
	for i := uint64(0); i < n; i++ {
		v, err := graph.ReadUvarint(data, &pos)
		if err != nil {
			return fmt.Errorf("cf: partial: %w", err)
		}
		vec, used, err := c.DecodeVal(data[pos:])
		if err != nil {
			return fmt.Errorf("cf: partial: %w", err)
		}
		pos += used
		if len(vec) != q.Cfg.Factors {
			return fmt.Errorf("cf: partial factors of vertex %d hold %d values, want %d", v, len(vec), q.Cfg.Factors)
		}
		vi, ok := g.Index(graph.ID(v))
		if !ok {
			return fmt.Errorf("cf: partial factors for unknown vertex %d", v)
		}
		st.factors[vi] = vec
	}
	nu, err := graph.ReadUvarint(data, &pos)
	if err != nil {
		return fmt.Errorf("cf: partial: %w", err)
	}
	for i := uint64(0); i < nu; i++ {
		u, err := graph.ReadUvarint(data, &pos)
		if err != nil {
			return fmt.Errorf("cf: partial: %w", err)
		}
		ui, ok := g.Index(graph.ID(u))
		if !ok {
			return fmt.Errorf("cf: partial user %d unknown", u)
		}
		st.users = append(st.users, ui)
	}
	ctx.State = st
	return nil
}

// ---- TriCount ----

// EncodeQuery implements engine.WireProgram (TriCount has no parameters).
func (TriCount) EncodeQuery(q TriCountQuery) ([]byte, error) { return nil, nil }

// DecodeQuery implements engine.WireProgram.
func (TriCount) DecodeQuery(data []byte) (TriCountQuery, error) { return TriCountQuery{}, nil }

// EncodePartial implements engine.PartialCodec: the fragment's total and
// per-pivot triangle counts (Context.Partial).
func (TriCount) EncodePartial(buf []byte, q TriCountQuery, ctx *engine.Context[uint8]) ([]byte, error) {
	var res TriCountResult
	if ctx.Partial != nil {
		res = ctx.Partial.(TriCountResult)
	}
	buf = binary.AppendVarint(slices.Grow(buf, 8+6*len(res.PerPivot)), res.Total)
	ids := make([]graph.ID, 0, len(res.PerPivot))
	for v := range res.PerPivot {
		ids = append(ids, v)
	}
	slices.Sort(ids)
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for _, v := range ids {
		buf = binary.AppendUvarint(buf, uint64(v))
		buf = binary.AppendVarint(buf, res.PerPivot[v])
	}
	return buf, nil
}

// DecodePartial implements engine.PartialCodec.
func (TriCount) DecodePartial(q TriCountQuery, ctx *engine.Context[uint8], data []byte) error {
	res := TriCountResult{PerPivot: make(map[graph.ID]int64)}
	total, pos := binary.Varint(data)
	if pos <= 0 {
		return fmt.Errorf("tricount: partial: bad total")
	}
	res.Total = total
	n, err := graph.ReadUvarint(data, &pos)
	if err != nil {
		return fmt.Errorf("tricount: partial: %w", err)
	}
	for i := uint64(0); i < n; i++ {
		v, err := graph.ReadUvarint(data, &pos)
		if err != nil {
			return fmt.Errorf("tricount: partial: %w", err)
		}
		c, used := binary.Varint(data[pos:])
		if used <= 0 {
			return fmt.Errorf("tricount: partial: bad count")
		}
		pos += used
		res.PerPivot[graph.ID(v)] = c
	}
	ctx.Partial = res
	return nil
}
