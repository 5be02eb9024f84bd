package seq

import "grape/internal/graph"

// SubIsoScan exposes the reference enumeration to the external equivalence
// suite, which needs internal/queries for the pattern library.
var SubIsoScan = subIsoScan

// PatternOpener is the pattern vertex the default matching order opens at.
func PatternOpener(p *graph.Graph) graph.ID { return orderPatternVertices(p, graph.NoID)[0] }
