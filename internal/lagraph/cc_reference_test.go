package lagraph

import (
	"context"
	"fmt"
	"testing"

	"lagraph/internal/gen"
	"lagraph/internal/grb"
	"lagraph/internal/parallel"
)

// fastSVAlgorithm7 is the paper's Algorithm 7 as written, the reference
// fastSV is checked against: step 4 gathers the grandparent into gf in
// place, step 5 compares it with dup, the previous one, and each round
// that goes on copies gf into dup. It reports one Work event a round.
func fastSVAlgorithm7[T grb.Value](ctx context.Context, S *grb.Matrix[T]) (*grb.Vector[int64], error) {
	prb := ProbeFrom(ctx)
	n := S.NRows()
	f := grb.DenseVector(n, int64(0))
	if err := grb.ApplyV(f, grb.NoVMask, nil, grb.RowIndexOp[int64, int64](), f, nil); err != nil {
		return nil, err
	}
	gf := f.Dup()
	dup := gf.Dup()
	mngf := gf.Dup()
	diff := grb.MustVector[int64](n)
	x := make([]int, n)
	parents := func(i int, v int64) { x[i] = int(v) }
	f.Iterate(parents)
	minOp := func(a, b int64) int64 { return min(a, b) }
	semiring := grb.MinSecond[T, int64]()
	for round := 1; ; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// mngf min= S min.second gf; step 1, f(x) min= mngf.
		if err := grb.MxV(mngf, grb.NoVMask, minOp, semiring, S, gf, nil); err != nil {
			return nil, err
		}
		if err := grb.AssignVector(f, grb.NoVMask, minOp, mngf, x, nil); err != nil {
			return nil, err
		}
		// Steps 2 and 3: f = f min∪ mngf; f = f min∪ gf.
		if err := grb.EWiseAddV(f, grb.NoVMask, nil, grb.MinOp[int64](), f, mngf, nil); err != nil {
			return nil, err
		}
		if err := grb.EWiseAddV(f, grb.NoVMask, nil, grb.MinOp[int64](), f, gf, nil); err != nil {
			return nil, err
		}
		// Step 4: x = values of f; gf = f(x).
		f.Iterate(parents)
		if err := grb.ExtractSubvector(gf, grb.NoVMask, nil, f, x, nil); err != nil {
			return nil, err
		}
		// Step 5: diff = gf ≠∩ dup.
		if err := grb.EWiseMultV(diff, grb.NoVMask, nil, grb.NEOp[int64, int64](), gf, dup, nil); err != nil {
			return nil, err
		}
		changed := grb.ReduceVectorToScalar(grb.PlusMonoid[int64](), diff)
		prb.Iter(IterStat{Iter: round, Work: changed})
		if changed == 0 {
			return f, nil
		}
		// dup = gf.
		if err := grb.AssignVector(dup, grb.NoVMask, nil, gf, grb.All, nil); err != nil {
			return nil, err
		}
	}
}

// TestFastSVMatchesAlgorithm7: ConnectedComponents, whose FastSV swaps the
// grandparent it gathers with the one it compares against, computes what
// Algorithm 7 as written does — every label, the number of rounds and
// each round's Work event — on the undirected path (Kron 12, Urand 12) and
// the directed path, A ∪ Aᵀ (Road 32×32, Twitter 12, Web 11), under one
// worker and under four.
func TestFastSVMatchesAlgorithm7(t *testing.T) {
	graphs := []*gen.EdgeList{gen.Kron(12, 8, 1), gen.Urand(12, 8, 1), gen.Road(32, 1), gen.Twitter(12, 8, 1), gen.Web(11, 8, 1)}
	for _, e := range graphs {
		g := graphFromEdges(t, e)
		// S is the matrix ConnectedComponents runs FastSV on.
		S := g.A
		if e.Directed {
			if err := g.PropertyAT(); err != nil && !IsWarning(err) {
				t.Fatal(err)
			}
			S = grb.MustMatrix[float64](e.N, e.N)
			if err := grb.EWiseAdd(S, grb.NoMask, nil, grb.AddOp(grb.First[float64, float64]()), g.A, g.CachedAT(), nil); err != nil {
				t.Fatal(err)
			}
		}
		for _, workers := range []int{1, 4} {
			what := fmt.Sprintf("%s, %d workers", e.Name, workers)
			run := func(cc func(context.Context) (*grb.Vector[int64], error)) ([]int64, ProbeSnapshot) {
				defer parallel.SetMaxThreads(parallel.SetMaxThreads(workers))
				prb := NewProbe(1 << 10)
				f, err := cc(WithProbe(bg, prb))
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if f.NVals() != e.N {
					t.Fatalf("%s: %d labels for %d vertices", what, f.NVals(), e.N)
				}
				labels := make([]int64, e.N)
				f.Iterate(func(i int, x int64) { labels[i] = x })
				return labels, prb.Snapshot()
			}
			got, gotProbe := run(func(ctx context.Context) (*grb.Vector[int64], error) { return ConnectedComponents(ctx, g) })
			ref, refProbe := run(func(ctx context.Context) (*grb.Vector[int64], error) { return fastSVAlgorithm7(ctx, S) })
			if gotProbe.Iterations != refProbe.Iterations || len(gotProbe.Iters) != len(refProbe.Iters) || gotProbe.Iterations < 2 {
				t.Fatalf("%s: %d rounds, algorithm 7 %d", what, gotProbe.Iterations, refProbe.Iterations)
			}
			for k, it := range gotProbe.Iters {
				if r := refProbe.Iters[k]; it != r {
					t.Fatalf("%s: round event %d is %+v, algorithm 7 %+v", what, k, it, r)
				}
			}
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("%s: label(%d) = %d, algorithm 7 %d", what, i, got[i], ref[i])
				}
			}
		}
	}
}
