// Social-network analysis: the Advanced-mode workflow of paper §II-B on a
// scale-free "Twitter-like" graph — the user opts into every property
// computation, then runs PageRank (influence), betweenness centrality
// (brokerage), triangle counting (clustering) and connected components,
// each through its one ctx-first signature. Run with:
//
//	go run ./examples/socialnetwork
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"lagraph/internal/gen"
	"lagraph/internal/grb"
	"lagraph/internal/lagraph"
)

func main() {
	ctx := context.Background()

	// A directed follower graph with celebrity skew.
	edges := gen.Twitter(11, 8, 7) // 2048 users
	g, err := lagraph.FromEdgeList(edges)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("follower graph: %d users, %d follow edges\n\n", g.NumNodes(), g.NumEdges())

	// Advanced mode: we compute the properties explicitly, once, up
	// front. An Advanced algorithm would have errored had we not.
	if _, _, err := lagraph.PageRankGAP(ctx, g, 0.85, 1e-4, 50); !isPropertyMissing(err) {
		log.Fatal("advanced mode should have demanded cached properties")
	}
	must(g.PropertyAT())
	must(g.PropertyRowDegree())
	must(g.PropertyColDegree())

	// Influence: PageRank, GAP variant (advanced users know this graph
	// has sinks and accept the GAP semantics for comparability).
	rank, iters, err := lagraph.PageRankGAP(ctx, g, 0.85, 1e-8, 100)
	must(err)
	fmt.Printf("PageRank converged in %d iterations; top accounts:\n", iters)
	for _, v := range topK(rank, 5) {
		in := int64(0)
		if d, err := g.ColDegree.ExtractElement(v.id); err == nil {
			in = d
		}
		fmt.Printf("  user %4d  rank %.5f  followers %d\n", v.id, v.val, in)
	}

	// Brokerage: batched betweenness centrality from four seeds (the
	// typical batch size, paper §IV-B). Seeds are picked among active
	// accounts — in a fragmented follow graph a random seed's forward
	// reachability can be empty.
	seeds := activeSeeds(g, 4)
	bc, err := lagraph.BetweennessCentralityAdvanced(ctx, g, seeds)
	must(err)
	fmt.Printf("\nbetweenness (batch %v); top brokers:\n", seeds)
	for _, v := range topK(bc, 5) {
		fmt.Printf("  user %4d  centrality %.1f\n", v.id, v.val)
	}

	// Clustering: symmetrise and count triangles.
	sym := symmetrised(edges)
	tri, err := lagraph.TriangleCount(ctx, sym)
	if err != nil && !lagraph.IsWarning(err) {
		log.Fatal(err)
	}
	fmt.Printf("\ntriangles in the mutual-follow graph: %d\n", tri)

	// Reach: weakly connected components.
	comp, err := lagraph.ConnectedComponents(ctx, g)
	must(err)
	sizes := map[int64]int{}
	comp.Iterate(func(_ int, c int64) { sizes[c]++ })
	largest := 0
	for _, s := range sizes {
		if s > largest {
			largest = s
		}
	}
	fmt.Printf("\nweak components: %d; largest holds %d of %d users (%.1f%%)\n",
		len(sizes), largest, g.NumNodes(), 100*float64(largest)/float64(g.NumNodes()))
}

type scored struct {
	id  int
	val float64
}

func topK(v *grb.Vector[float64], k int) []scored {
	var all []scored
	v.Iterate(func(i int, x float64) { all = append(all, scored{i, x}) })
	sort.Slice(all, func(a, b int) bool { return all[a].val > all[b].val })
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func symmetrised(e *gen.EdgeList) *lagraph.Graph[float64] {
	src := append(append([]int32{}, e.Src...), e.Dst...)
	dst := append(append([]int32{}, e.Dst...), e.Src...)
	sym := &gen.EdgeList{N: e.N, Src: src, Dst: dst, Directed: false}
	// Mutual follows appear twice; Dedup collapses them and restores the
	// (src, dst) order FromEdgeList requires.
	sym.Dedup()
	g, err := lagraph.FromEdgeList(sym)
	if err != nil {
		log.Fatal(err)
	}
	return g
}

// activeSeeds picks the k accounts following the most others, so the
// centrality batch starts from vertices with real forward reach.
func activeSeeds(g *lagraph.Graph[float64], k int) []int {
	type ds struct {
		id  int
		deg int64
	}
	var all []ds
	g.RowDegree.Iterate(func(i int, d int64) { all = append(all, ds{i, d}) })
	sort.Slice(all, func(a, b int) bool { return all[a].deg > all[b].deg })
	seeds := make([]int, 0, k)
	for _, v := range all[:k] {
		seeds = append(seeds, v.id)
	}
	return seeds
}

func must(err error) {
	if err != nil && !lagraph.IsWarning(err) {
		log.Fatal(err)
	}
}

func isPropertyMissing(err error) bool {
	return lagraph.StatusOf(err) == lagraph.StatusPropertyMissing
}
