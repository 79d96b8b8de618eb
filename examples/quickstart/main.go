// Quickstart: build a small graph, inspect it, and run the Basic-mode
// algorithms — the "I just want the correct answer" user mode of paper
// §II-B. Every kernel takes a context first (there is one signature per
// algorithm and tier); a program with nothing to cancel passes its root
// context. Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"lagraph/internal/grb"
	"lagraph/internal/lagraph"
)

func main() {
	ctx := context.Background()

	// A tiny collaboration network: edges are undirected (both
	// orientations stored), like the paper's Listing 1 builds a
	// GrB_Matrix first and then moves it into the Graph.
	//
	//        0 --- 1
	//        |   / |
	//        |  /  |
	//        2 --- 3     4 --- 5      6 (isolated)
	src := []int{0, 1, 0, 2, 1, 2, 1, 3, 2, 3, 4, 5}
	dst := []int{1, 0, 2, 0, 2, 1, 3, 1, 3, 2, 5, 4}
	vals := make([]float64, len(src))
	for i := range vals {
		vals[i] = 1
	}
	M, err := grb.MatrixFromTuples(7, 7, src, dst, vals, nil)
	if err != nil {
		log.Fatal(err)
	}

	// The move constructor: after New, M is nil and the graph owns the
	// matrix (paper Listing 1, line 21).
	g, err := lagraph.New(&M, lagraph.AdjacencyUndirected)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("moved matrix into graph; caller pointer is now nil: %v\n\n", M == nil)

	if err := g.CheckGraph(); err != nil {
		log.Fatal(err)
	}
	g.DisplayGraph(os.Stdout)

	// Basic-mode BFS: properties (AT, RowDegree) are computed and cached
	// for us; the returned warning says so.
	parent, level, err := lagraph.BreadthFirstSearch(ctx, g, 0, true, true)
	if err != nil && !lagraph.IsWarning(err) {
		log.Fatal(err)
	}
	if lagraph.IsWarning(err) {
		fmt.Printf("\nBasic mode warned: %v\n", err)
	}
	fmt.Println("\nBFS from vertex 0:")
	level.Iterate(func(i int, l int32) {
		p, _ := parent.ExtractElement(i)
		fmt.Printf("  vertex %d: level %d, parent %d\n", i, l, p)
	})
	fmt.Println("  (vertices 4, 5, 6 are unreached — absent from the output vector)")

	// Basic-mode PageRank (the dangling-safe Graphalytics variant).
	rank, iters, err := lagraph.PageRank(ctx, g, 0.85, 1e-8, 100)
	if err != nil && !lagraph.IsWarning(err) {
		log.Fatal(err)
	}
	fmt.Printf("\nPageRank converged in %d iterations:\n", iters)
	rank.Iterate(func(i int, x float64) {
		fmt.Printf("  vertex %d: %.4f\n", i, x)
	})

	// Triangle counting.
	tri, err := lagraph.TriangleCount(ctx, g)
	if err != nil && !lagraph.IsWarning(err) {
		log.Fatal(err)
	}
	fmt.Printf("\ntriangles: %d (0-1-2 and 1-2-3)\n", tri)

	// Connected components.
	comp, err := lagraph.ConnectedComponents(ctx, g)
	if err != nil && !lagraph.IsWarning(err) {
		log.Fatal(err)
	}
	fmt.Println("\ncomponents (labelled by smallest member):")
	comp.Iterate(func(i int, c int64) {
		fmt.Printf("  vertex %d -> component %d\n", i, c)
	})
}
