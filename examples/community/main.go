// Community structure with the experimental tier (paper §II-E): k-truss
// cores, label-propagation communities and a maximal independent set on a
// planted-partition graph, plus the stable tier's local clustering
// coefficient. Experimental kernels follow the stable calling convention:
// ctx first, one signature each. Run with:
//
//	go run ./examples/community
package main

import (
	"context"
	"fmt"
	"log"

	"lagraph/internal/grb"
	"lagraph/internal/lagraph"
	"lagraph/internal/lagraph/experimental"
)

func main() {
	ctx := context.Background()

	// A planted-partition graph: four dense groups of 32, sparse
	// cross-links.
	const groups, size = 4, 32
	n := groups * size
	rng := uint64(42)
	next := func() uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return rng >> 33
	}
	var rows, cols []int
	var vals []float64
	addEdge := func(u, v int) {
		rows = append(rows, u, v)
		cols = append(cols, v, u)
		vals = append(vals, 1, 1)
	}
	for g := 0; g < groups; g++ {
		base := g * size
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				if next()%100 < 30 { // dense inside
					addEdge(base+i, base+j)
				}
			}
		}
	}
	for k := 0; k < n/2; k++ { // sparse across
		u := int(next() % uint64(n))
		v := int(next() % uint64(n))
		if u/size != v/size && u != v {
			addEdge(u, v)
		}
	}
	M, err := grb.MatrixFromTuples(n, n, rows, cols, vals, func(a, _ float64) float64 { return a })
	if err != nil {
		log.Fatal(err)
	}
	g, err := lagraph.New(&M, lagraph.AdjacencyUndirected)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("planted-partition graph: %d vertices, %d entries, %d groups\n\n",
		g.NumNodes(), g.NumEdges(), groups)

	// Label propagation should rediscover the planted groups.
	labels, err := experimental.CommunityDetectionLabelPropagation(ctx, g, 30)
	if err != nil {
		log.Fatal(err)
	}
	counts := map[int64]int{}
	labels.Iterate(func(_ int, l int64) { counts[l]++ })
	fmt.Printf("CDLP found %d communities; sizes:", len(counts))
	for _, c := range counts {
		fmt.Printf(" %d", c)
	}
	fmt.Println()
	purity := 0
	for gId := 0; gId < groups; gId++ {
		inGroup := map[int64]int{}
		for i := gId * size; i < (gId+1)*size; i++ {
			l, _ := labels.ExtractElement(i)
			inGroup[l]++
		}
		best := 0
		for _, c := range inGroup {
			if c > best {
				best = c
			}
		}
		purity += best
	}
	fmt.Printf("community purity vs planted groups: %.0f%%\n\n", 100*float64(purity)/float64(n))

	// Truss decomposition: how deep do the dense cores go?
	for k := 3; ; k++ {
		truss, err := experimental.KTruss(ctx, g, k)
		if err != nil {
			log.Fatal(err)
		}
		if truss.NVals() == 0 {
			fmt.Printf("maximal non-empty truss: k = %d\n\n", k-1)
			break
		}
		fmt.Printf("%d-truss: %5d edges\n", k, truss.NVals()/2)
	}

	// Clustering: group members should have high LCC.
	lcc, err := lagraph.LocalClusteringCoefficient(ctx, g)
	if err != nil && !lagraph.IsWarning(err) {
		log.Fatal(err)
	}
	mean := grb.ReduceVectorToScalar(grb.PlusMonoid[float64](), lcc) / float64(n)
	fmt.Printf("mean local clustering coefficient: %.3f\n", mean)

	// An independent set (e.g. for picking non-adjacent community seeds).
	mis, err := experimental.MaximalIndependentSet(ctx, g, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("maximal independent set size: %d of %d vertices\n", mis.NVals(), n)
}
