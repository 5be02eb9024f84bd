package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The text format used by ReadText / WriteText is line oriented:
//
//	# comment
//	v <id> <label> [prop ...]
//	e <from> <to> <weight> [label]
//
// Vertices referenced only by edges are created with empty labels, so a bare
// edge list (lines "e u v w") is a valid graph file.

// ReadText parses a graph in the text format above. directed selects the
// graph kind.
func ReadText(r io.Reader, directed bool) (*Graph, error) {
	g := NewUndirectedBuilder()
	if directed {
		g = NewBuilder()
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "v":
			if len(fields) < 2 {
				return nil, fmt.Errorf("graph: line %d: vertex needs an id", lineNo)
			}
			id, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
			}
			label := ""
			if len(fields) >= 3 && fields[2] != "-" {
				label = fields[2]
			}
			g.AddVertex(ID(id), label)
			if len(fields) > 3 {
				g.SetProps(ID(id), append([]string(nil), fields[3:]...))
			}
		case "e":
			if len(fields) < 3 {
				return nil, fmt.Errorf("graph: line %d: edge needs endpoints", lineNo)
			}
			u, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
			}
			v, err := strconv.ParseInt(fields[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
			}
			w := 1.0
			if len(fields) >= 4 {
				w, err = strconv.ParseFloat(fields[3], 64)
				if err != nil {
					return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
				}
			}
			label := ""
			if len(fields) >= 5 {
				label = fields[4]
			}
			g.AddLabeledEdge(ID(u), ID(v), w, label)
		default:
			return nil, fmt.Errorf("graph: line %d: unknown record %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return g.Graph(), nil
}

// WriteText writes the graph in the text format accepted by ReadText.
// Undirected edges are written once (smaller endpoint first by insertion).
func WriteText(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	for i, id := range g.ids {
		label, props := g.LabelAt(int32(i)), g.PropsAt(int32(i))
		if label == "" && len(props) == 0 {
			continue // implied by edges
		}
		fmt.Fprintf(bw, "v %d %s", id, orDash(label))
		for _, p := range props {
			fmt.Fprintf(bw, " %s", p)
		}
		fmt.Fprintln(bw)
	}
	for i, u := range g.ids {
		for _, e := range g.OutAt(int32(i)) {
			v := g.ids[e.To]
			if !g.directed && u > v {
				continue
			}
			if l := g.labelNames[e.Label]; l != "" {
				fmt.Fprintf(bw, "e %d %d %g %s\n", u, v, e.W, l)
			} else {
				fmt.Fprintf(bw, "e %d %d %g\n", u, v, e.W)
			}
		}
	}
	return bw.Flush()
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
