// Command grape-gen generates the synthetic datasets of the reproduction and
// writes them in the graph text format (readable by cmd/grape -input and
// graph.ReadText), printing a structural summary so you can check the dataset
// has the property its experiment depends on (diameter for road networks,
// degree skew for social graphs).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"

	"grape"
	"grape/internal/graph"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("grape-gen: ")
	var (
		kind     = flag.String("kind", "road", "dataset: "+grape.Datasets)
		out      = flag.String("o", "", "output file (default stdout)")
		keywords = flag.String("keywords", "", "comma-separated vocabulary to attach")
		sizes    grape.Dataset
	)
	sizes.Flags(flag.CommandLine)
	flag.Parse()

	g, err := sizes.Build(*kind)
	if err != nil {
		log.Fatal(err)
	}
	if *keywords != "" {
		grape.AttachKeywords(g, strings.Split(*keywords, ","), 2, 0.05, sizes.Seed)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := graph.WriteText(w, g); err != nil {
		log.Fatal(err)
	}

	fmt.Fprintf(os.Stderr, "%s: %d vertices, %d edges\n", *kind, g.NumVertices(), g.NumEdges())
	fmt.Fprintf(os.Stderr, "hop eccentricity from vertex 0: %d\n", g.Diameter(0))
	degs := make([]int, 0, g.NumVertices())
	for _, v := range g.Vertices() {
		degs = append(degs, g.OutDegree(v))
	}
	sort.Ints(degs)
	if len(degs) > 0 {
		fmt.Fprintf(os.Stderr, "out-degree p50=%d p99=%d max=%d\n",
			degs[len(degs)/2], degs[len(degs)*99/100], degs[len(degs)-1])
	}
}
