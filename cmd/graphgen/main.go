// Command graphgen generates one of the benchmark graph classes and saves
// it as a Matrix Market or binary file (grb.SerializeMatrix, the bytes
// POST /graphs?format=bin accepts), so experiments can run on frozen
// inputs.
//
// Usage:
//
//	graphgen -class Kron -scale 14 -o kron14.mtx
//	graphgen -class Road -scale 14 -weights -format bin -o road.grb
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"lagraph/internal/gen"
	"lagraph/internal/lagraph"
)

func main() {
	var (
		class   = flag.String("class", "Kron", "graph class: Kron, Urand, Twitter, Web, Road")
		scale   = flag.Int("scale", 12, "log2 vertex count (Road: grid dim 2^(scale/2))")
		ef      = flag.Int("ef", 8, "edges per vertex before dedup")
		seed    = flag.Uint64("seed", 1, "generator seed")
		weights = flag.Bool("weights", false, "attach uniform [1,255] weights")
		format  = flag.String("format", "mm", "output format: mm or bin")
		out     = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal("creating %s: %v", *out, err)
		}
		w = f
	}
	e, err := generate(w, *format, *class, *scale, *ef, *seed, *weights)
	if err == nil {
		err = w.Close()
	}
	if err != nil {
		fatal("%v", err)
	}
	fmt.Fprintf(os.Stderr, "%s: %d nodes, %d entries, directed=%v\n",
		e.Name, e.N, e.NumEdges(), e.Directed)
}

// generate builds one graph class and writes its adjacency matrix to w,
// as Matrix Market text ("mm") or the GraphBLAS serialization ("bin").
func generate(w io.Writer, format, class string, scale, ef int, seed uint64, weights bool) (*gen.EdgeList, error) {
	e, err := gen.Generate(class, scale, ef, seed)
	if err != nil {
		return nil, err
	}
	if weights {
		e.AddUniformWeights(seed+17, 1, 255)
	}
	g, err := lagraph.FromEdgeList(e)
	if err != nil {
		return nil, fmt.Errorf("building matrix: %w", err)
	}
	switch format {
	case "mm":
		err = lagraph.MMWrite(w, g.A)
	case "bin":
		err = lagraph.BinWrite(w, g.A)
	default:
		err = fmt.Errorf("unknown format %q", format)
	}
	return e, err
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "graphgen: "+format+"\n", args...)
	os.Exit(1)
}
