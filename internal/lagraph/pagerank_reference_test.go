package lagraph

import (
	"context"
	"fmt"
	"math"
	"testing"

	"lagraph/internal/gen"
	"lagraph/internal/grb"
	"lagraph/internal/parallel"
)

// pageRankAlgorithm4 is the paper's Algorithm 4 as written, the reference
// PageRankGAP and PageRankGX are checked against: d = deg/damping stored
// only where a degree is, so w = t ÷∩ d leaves the sinks out, and per
// sweep t = t − r and then t = |t| before the sum. handleDangling adds the
// Graphalytics sink share. It reports one Residual event a sweep.
func pageRankAlgorithm4[T grb.Value](ctx context.Context, g *Graph[T], damping, tol float64, itermax int, handleDangling bool) (*grb.Vector[float64], int, error) {
	at, rowDegree := g.CachedAT(), g.CachedRowDegree()
	prb := ProbeFrom(ctx)
	n := g.NumNodes()
	teleport := (1 - damping) / float64(n)

	// d = rowdegree / damping, present only where degree > 0 (line 5).
	d := grb.MustVector[float64](n)
	toF := grb.UnaryOp[int64, float64]{Name: "scale", F: func(x int64) float64 { return float64(x) / damping }}
	if err := grb.ApplyV(d, grb.NoVMask, nil, toF, rowDegree, nil); err != nil {
		return nil, 0, err
	}
	var sink *grb.Vector[bool]
	if handleDangling {
		sink = grb.MustVector[bool](n)
		if err := grb.AssignVectorScalar(sink, grb.StructVMaskOf(rowDegree).Not(), nil, true, grb.All, nil); err != nil {
			return nil, 0, err
		}
	}

	r := grb.DenseVector(n, 1/float64(n))
	t := grb.MustVector[float64](n)
	w, ts := grb.MustVector[float64](n), grb.MustVector[float64](n)
	plus := func(a, b float64) float64 { return a + b }
	semiring := grb.PlusSecond[T, float64]()
	iters := 0
	for k := 0; k < itermax; k++ {
		if err := ctx.Err(); err != nil {
			return nil, iters, err
		}
		iters = k + 1
		t, r = r, t
		// w = t ÷∩ d
		if err := grb.EWiseMultV(w, grb.NoVMask, nil, grb.DivOp[float64](), t, d, nil); err != nil {
			return nil, 0, err
		}
		base := teleport
		if handleDangling {
			if err := grb.ApplyV(ts, grb.VMaskOf(sink), nil, grb.Identity[float64](), t, nil); err != nil {
				return nil, 0, err
			}
			base += damping * grb.ReduceVectorToScalar(grb.PlusMonoid[float64](), ts) / float64(n)
		}
		// r(:) = teleport (+ sink share); r += Aᵀ plus.second w.
		if err := grb.AssignVectorScalar(r, grb.NoVMask, nil, base, grb.All, nil); err != nil {
			return nil, 0, err
		}
		if err := grb.MxV(r, grb.NoVMask, plus, semiring, at, w, nil); err != nil {
			return nil, 0, err
		}
		// t = t − r; t = |t|.
		if err := grb.EWiseAddV(t, grb.NoVMask, nil, grb.MinusOp[float64](), t, r, nil); err != nil {
			return nil, 0, err
		}
		if err := grb.ApplyV(t, grb.NoVMask, nil, grb.AbsOp[float64](), t, nil); err != nil {
			return nil, 0, err
		}
		rdiff := grb.ReduceVectorToScalar(grb.PlusMonoid[float64](), t)
		prb.Iter(IterStat{Iter: iters, Residual: rdiff})
		if rdiff < tol {
			break
		}
	}
	return r, iters, nil
}

// TestPageRankMatchesAlgorithm4: PageRankGAP and PageRankGX, whose sweeps
// run on full vectors with +Inf at the sinks of d, compute the bits
// Algorithm 4 as written does — every rank by math.Float64bits, the
// iteration count and every Residual event — on Kron 12, the Road 32×32
// grid and a directed Twitter graph with sinks, under one worker and under
// four. Kron's and Twitter's pulls are cut across the four.
func TestPageRankMatchesAlgorithm4(t *testing.T) {
	graphs := []*gen.EdgeList{gen.Kron(12, 8, 1), gen.Road(32, 1), gen.Twitter(11, 8, 1)}
	for _, e := range graphs {
		g := graphFromEdges(t, e)
		for _, prop := range []func() error{g.PropertyAT, g.PropertyRowDegree} {
			if err := prop(); err != nil && !IsWarning(err) {
				t.Fatal(err)
			}
		}
		if e.Name == "Twitter" && g.CachedRowDegree().NVals() == e.N {
			t.Fatalf("%s has no sink", e.Name)
		}
		for _, workers := range []int{1, 4} {
			for _, gx := range []bool{false, true} {
				what := fmt.Sprintf("%s, GX %v, %d workers", e.Name, gx, workers)
				kernel := PageRankGAP[float64]
				if gx {
					kernel = PageRankGX[float64]
				}
				reference := func(ctx context.Context, g *Graph[float64], damping, tol float64, itermax int) (*grb.Vector[float64], int, error) {
					return pageRankAlgorithm4(ctx, g, damping, tol, itermax, gx)
				}
				run := func(pr func(context.Context, *Graph[float64], float64, float64, int) (*grb.Vector[float64], int, error)) ([]uint64, int, ProbeSnapshot) {
					defer parallel.SetMaxThreads(parallel.SetMaxThreads(workers))
					prb := NewProbe(1 << 10)
					r, iters, err := pr(WithProbe(bg, prb), g, 0.85, 1e-7, 60)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					bits := make([]uint64, e.N)
					r.Iterate(func(i int, x float64) { bits[i] = math.Float64bits(x) })
					if r.NVals() != e.N {
						t.Fatalf("%s: %d ranks for %d vertices", what, r.NVals(), e.N)
					}
					return bits, iters, prb.Snapshot()
				}
				got, gotIters, gotProbe := run(kernel)
				ref, refIters, refProbe := run(reference)
				if gotIters != refIters || gotIters < 2 || len(gotProbe.Iters) != len(refProbe.Iters) {
					t.Fatalf("%s: %d sweeps and %d events, algorithm 4 %d and %d", what, gotIters, len(gotProbe.Iters), refIters, len(refProbe.Iters))
				}
				for k, it := range gotProbe.Iters {
					if r := refProbe.Iters[k]; it.Iter != r.Iter || math.Float64bits(it.Residual) != math.Float64bits(r.Residual) {
						t.Fatalf("%s: sweep event %d is %+v, algorithm 4 %+v", what, k, it, r)
					}
				}
				for i := range got {
					if got[i] != ref[i] {
						t.Fatalf("%s: rank(%d) = %v, algorithm 4 %v", what, i, math.Float64frombits(got[i]), math.Float64frombits(ref[i]))
					}
				}
			}
		}
	}
}
