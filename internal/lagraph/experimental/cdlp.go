package experimental

import (
	"context"
	"sort"

	"lagraph/internal/grb"
	"lagraph/internal/lagraph"
)

// CommunityDetectionLabelPropagation (CDLP) is the Graphalytics kernel the
// paper's future-work section points at ("we will investigate end-to-end
// workflows based on the LDBC Graphalytics benchmark"): synchronous label
// propagation where every vertex adopts the most frequent label among its
// neighbours, ties broken by the smallest label. Labels start as vertex
// ids; maxIter bounds the rounds (Graphalytics uses a fixed budget).
//
// The per-vertex mode computation has no natural semiring, so — like the
// C LAGraph's experimental LAGraph_cdlp — the algorithm extracts the
// adjacency structure once through GraphBLAS and computes modes over the
// sorted neighbour-label lists each round.
func CommunityDetectionLabelPropagation[T grb.Value](ctx context.Context, g *lagraph.Graph[T], maxIter int) (*grb.Vector[int64], error) {
	if g == nil || g.A == nil {
		return nil, lagraph.ErrInvalid("CDLP: nil graph")
	}
	n := g.A.NRows()
	if g.A.NCols() != n {
		return nil, lagraph.ErrInvalid("CDLP: adjacency matrix not square")
	}
	if maxIter < 1 {
		maxIter = 10
	}
	// For directed graphs Graphalytics counts each neighbour via incoming
	// and outgoing edges; build the combined structure.
	rows, cols, _ := g.A.ExtractTuples()
	if g.Kind == lagraph.AdjacencyDirected {
		at := g.CachedAT()
		if at == nil {
			at = grb.NewTranspose(g.A)
		}
		r2, c2, _ := at.ExtractTuples()
		rows = append(rows, r2...)
		cols = append(cols, c2...)
	}
	// CSR of the (multi-)neighbour lists.
	ptr := make([]int, n+1)
	for _, r := range rows {
		ptr[r+1]++
	}
	for i := 0; i < n; i++ {
		ptr[i+1] += ptr[i]
	}
	adj := make([]int32, len(rows))
	next := append([]int(nil), ptr[:n]...)
	for k, r := range rows {
		adj[next[r]] = int32(cols[k])
		next[r]++
	}

	label := make([]int64, n)
	for i := range label {
		label[i] = int64(i)
	}
	newLabel := make([]int64, n)
	scratch := make([]int64, 0, 64)
	for iter := 0; iter < maxIter; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		changed := false
		for v := 0; v < n; v++ {
			lo, hi := ptr[v], ptr[v+1]
			if lo == hi {
				newLabel[v] = label[v]
				continue
			}
			scratch = scratch[:0]
			for p := lo; p < hi; p++ {
				scratch = append(scratch, label[adj[p]])
			}
			sort.Slice(scratch, func(a, b int) bool { return scratch[a] < scratch[b] })
			// Most frequent label, smallest wins ties.
			best, bestCount := scratch[0], 1
			cur, count := scratch[0], 1
			for _, l := range scratch[1:] {
				if l == cur {
					count++
				} else {
					cur, count = l, 1
				}
				if count > bestCount {
					best, bestCount = cur, count
				}
			}
			newLabel[v] = best
			if best != label[v] {
				changed = true
			}
		}
		label, newLabel = newLabel, label
		if !changed {
			break
		}
	}
	out := grb.DenseVector(n, int64(0))
	idx := grb.UnaryOp[int64, int64]{Name: "fill", PosF: func(_ int64, i, _ int) int64 { return label[i] }}
	if err := grb.ApplyV(out, grb.NoVMask, nil, idx, out, nil); err != nil {
		return nil, err
	}
	return out, nil
}
