// Road-network routing: delta-stepping SSSP on a weighted high-diameter
// grid — the workload class where the paper's evaluation shows the
// GraphBLAS formulation at its weakest (§VI-B's Road-graph discussion),
// demonstrated honestly. It calls SSSP in both tiers — the Basic entry
// picks Δ, the Advanced one takes it — each through its one ctx-first
// signature. Run with:
//
//	go run ./examples/roadnetwork
package main

import (
	"context"
	"fmt"
	"log"

	"lagraph/internal/gen"
	"lagraph/internal/grb"
	"lagraph/internal/lagraph"
)

func main() {
	ctx := context.Background()

	// A 64x64 road grid with travel-time weights in [1, 255] (the GAP
	// SSSP weight convention).
	edges := gen.Road(64, 3)
	edges.AddUniformWeights(11, 1, 255)
	g, err := lagraph.FromEdgeList(edges)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("road network: %d intersections, %d road segments\n\n",
		g.NumNodes(), g.NumEdges())

	src := 0 // top-left corner
	timer := lagraph.Tic()

	// Bucket width Δ: the paper's Algorithm 5 takes it as an input; the
	// Basic entry point picks one from the average weight when given 0.
	dist, err := lagraph.SingleSourceShortestPath(ctx, g, src, 0.0)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := timer.Toc()

	// Travel times to the other three corners.
	dim := 64
	corners := map[string]int{
		"top-right":    dim - 1,
		"bottom-left":  dim * (dim - 1),
		"bottom-right": dim*dim - 1,
	}
	fmt.Printf("shortest travel times from the top-left corner (%.3fs):\n", elapsed)
	for name, v := range corners {
		d, _ := dist.ExtractElement(v)
		fmt.Printf("  %-13s %6.0f\n", name, d)
	}

	reached := 0
	var farthest float64
	dist.Iterate(func(_ int, d float64) {
		if lagraph.Reachable(d) {
			reached++
			if d > farthest {
				farthest = d
			}
		}
	})
	fmt.Printf("\nreached %d/%d intersections; farthest travel time %.0f\n",
		reached, g.NumNodes(), farthest)

	// Compare a few Δ choices: small Δ = many buckets (more iterations,
	// less wasted work); large Δ = approaches Bellman-Ford.
	fmt.Println("\nΔ sensitivity (same distances, different bucket schedules):")
	for _, delta := range []float64{16, 64, 256, 4096} {
		tm := lagraph.Tic()
		d2, err := lagraph.SSSPDeltaStepping(ctx, g, src, delta)
		if err != nil {
			log.Fatal(err)
		}
		same, err := lagraph.VectorIsEqual(dist, d2)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  Δ=%-6.0f %.3fs  distances identical: %v\n", delta, tm.Toc(), same)
	}

	// The hop structure of the grid: BFS levels show the high diameter
	// that drives the paper's Road-graph pathology.
	_, levels, err := lagraph.BreadthFirstSearch(ctx, g, src, false, true)
	if err != nil && !lagraph.IsWarning(err) {
		log.Fatal(err)
	}
	maxLevel := grb.ReduceVectorToScalar(grb.MaxMonoid[int32](), levels)
	fmt.Printf("\nBFS eccentricity from the corner: %d hops — each hop is one\n", maxLevel)
	fmt.Println("GraphBLAS iteration, the per-call overhead the paper's §VI-B discusses.")
}
