// Package experimental is the paper's §II-E experimental tier: "New
// algorithms or modifications of existing algorithms will first be added
// to the experimental folder … there is no expectation of a bug-free
// experience. The goal is to generate lots of ideas and allow uninhibited
// contributions."
//
// It carries algorithms beyond the stable tier (k-truss, Luby's maximal
// independent set, Bellman-Ford, label propagation). The calling
// convention is the stable tier's: one signature per algorithm, ctx
// first, polled once per round of the algorithm's loop.
package experimental

import (
	"context"

	"lagraph/internal/grb"
	"lagraph/internal/lagraph"
)

// KTruss computes the k-truss of an undirected simple graph: the maximal
// subgraph in which every edge participates in at least k-2 triangles.
// The returned matrix holds, for every surviving edge, its triangle
// support. Follows the LAGraph experimental LAGraph_ktruss: iterate
// C⟨s(C)⟩ = C plus.pair Cᵀ, drop edges below support, until fixpoint.
func KTruss[T grb.Value](ctx context.Context, g *lagraph.Graph[T], k int) (*grb.Matrix[int64], error) {
	if g == nil || g.A == nil {
		return nil, lagraph.ErrInvalid("KTruss: nil graph")
	}
	if g.Kind != lagraph.AdjacencyUndirected {
		return nil, lagraph.ErrInvalid("KTruss: requires an undirected graph")
	}
	if k < 3 {
		return nil, lagraph.ErrInvalid("KTruss: k must be at least 3")
	}
	n := g.A.NRows()
	// C = pattern of A without the diagonal, as int64.
	C := grb.MustMatrix[int64](n, n)
	one := grb.UnaryOp[T, int64]{Name: "one", F: func(T) int64 { return 1 }}
	if err := grb.Apply(C, grb.NoMask, nil, one, g.A, nil); err != nil {
		return nil, err
	}
	if err := grb.Select(C, grb.NoMask, nil, grb.Offdiag[int64](), C, 0, nil); err != nil {
		return nil, err
	}
	support := int64(k - 2)
	semiring := grb.PlusPair[int64, int64, int64]()
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		before := C.NVals()
		// S⟨s(C)⟩ = C plus.pair Cᵀ: per-edge triangle support.
		S := grb.MustMatrix[int64](n, n)
		if err := grb.MxM(S, grb.StructMaskOf(C), nil, semiring, C, C, grb.DescT1); err != nil {
			return nil, err
		}
		// Keep edges with enough support.
		if err := grb.Select(C, grb.NoMask, nil, grb.ValueGE[int64](), S, support, nil); err != nil {
			return nil, err
		}
		if C.NVals() == before {
			return C, nil
		}
	}
}

// MaximalIndependentSet computes a maximal independent set with Luby's
// algorithm: every undecided vertex draws a deterministic pseudo-random
// score; vertices beating all undecided neighbours join the set and their
// neighbours drop out. Returns a boolean vector marking members.
func MaximalIndependentSet[T grb.Value](ctx context.Context, g *lagraph.Graph[T], seed uint64) (*grb.Vector[bool], error) {
	if g == nil || g.A == nil {
		return nil, lagraph.ErrInvalid("MaximalIndependentSet: nil graph")
	}
	if g.Kind != lagraph.AdjacencyUndirected {
		return nil, lagraph.ErrInvalid("MaximalIndependentSet: requires an undirected graph")
	}
	n := g.A.NRows()
	mis := grb.MustVector[bool](n)
	// candidates: all vertices, scored by a seeded hash (degree-0 vertices
	// trivially join on the first round — they have no neighbours).
	cand := grb.DenseVector(n, uint64(0))
	scoreOf := func(i int) uint64 {
		x := uint64(i)*0x9e3779b97f4a7c15 + seed
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		x ^= x >> 29
		return x | 1 // never zero, so valued masks keep every candidate
	}
	score := grb.UnaryOp[uint64, uint64]{
		Name: "score",
		PosF: func(_ uint64, i, _ int) uint64 { return scoreOf(i) },
	}
	if err := grb.ApplyV(cand, grb.NoVMask, nil, score, cand, nil); err != nil {
		return nil, err
	}
	maxSecond := grb.Semiring[T, uint64, uint64]{
		Name: "max.second",
		Add:  grb.MaxMonoid[uint64](),
		Mul:  grb.Second[T, uint64](),
	}
	for cand.NVals() > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// neighbourMax(i) = max score among i's undecided neighbours.
		nbrMax := grb.MustVector[uint64](n)
		if err := grb.MxV(nbrMax, grb.StructVMaskOf(cand), nil, maxSecond, g.A, cand, grb.DescR); err != nil {
			return nil, err
		}
		// Winners: candidates whose score beats every undecided
		// neighbour (vertices with no undecided neighbour win outright).
		winners := grb.MustVector[bool](n)
		cand.Iterate(func(i int, s uint64) {
			m, err := nbrMax.ExtractElement(i)
			if err != nil || s > m {
				lagraph.Must(winners.SetElement(true, i))
			}
		})
		if winners.NVals() == 0 {
			// Ties (astronomically unlikely with 64-bit scores): break
			// deterministically by smallest id to guarantee progress.
			i0, _ := cand.ExtractTuples()
			lagraph.Must(winners.SetElement(true, i0[0]))
		}
		// mis ∪= winners.
		if err := grb.AssignVectorScalar(mis, grb.StructVMaskOf(winners), nil, true, grb.All, nil); err != nil {
			return nil, err
		}
		// Remove winners and their neighbours from the candidates.
		nbr := grb.MustVector[bool](n)
		winBool := grb.Semiring[T, bool, bool]{
			Name: "lor.second",
			Add:  grb.LorMonoid(),
			Mul:  grb.Second[T, bool](),
		}
		if err := grb.MxV(nbr, grb.NoVMask, nil, winBool, g.A, winners, nil); err != nil {
			return nil, err
		}
		next := grb.MustVector[uint64](n)
		cand.Iterate(func(i int, s uint64) {
			if _, err := winners.ExtractElement(i); err == nil {
				return
			}
			if _, err := nbr.ExtractElement(i); err == nil {
				return
			}
			lagraph.Must(next.SetElement(s, i))
		})
		cand = next
	}
	return mis, nil
}
