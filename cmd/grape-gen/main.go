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
		kind     = flag.String("kind", "road", "dataset: road|social|commerce|ratings")
		out      = flag.String("o", "", "output file (default stdout)")
		rows     = flag.Int("rows", 128, "road: rows")
		cols     = flag.Int("cols", 128, "road: cols")
		n        = flag.Int("n", 20000, "social: vertices")
		deg      = flag.Int("deg", 5, "social: out-degree")
		people   = flag.Int("people", 2000, "commerce: people")
		products = flag.Int("products", 20, "commerce: products")
		users    = flag.Int("users", 400, "ratings: users")
		items    = flag.Int("items", 80, "ratings: items")
		seed     = flag.Int64("seed", 1, "seed")
		keywords = flag.String("keywords", "", "comma-separated vocabulary to attach")
	)
	flag.Parse()

	var g *grape.Graph
	switch *kind {
	case "road":
		g = grape.RoadGrid(*rows, *cols, *seed)
	case "social":
		g = grape.SocialNetwork(*n, *deg, *seed)
	case "commerce":
		g = grape.SocialCommerce(*people, *products, *seed)
	case "ratings":
		g = grape.Ratings(*users, *items, 12, *seed)
	default:
		log.Fatalf("unknown kind %q", *kind)
	}
	if *keywords != "" {
		grape.AttachKeywords(g, strings.Split(*keywords, ","), 2, 0.05, *seed)
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
