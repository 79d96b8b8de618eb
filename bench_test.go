// Package bench holds the top-level benchmark suite: one benchmark family
// per evaluation artefact of the paper.
//
//   - BenchmarkTableIII_<Alg>_<Impl>_<Graph>: the 6 kernels × 2
//     implementations × 5 graph classes of paper Table III. "GAP" is the
//     direct (GAP-benchmark-style) baseline, "SS" the LAGraph-on-GraphBLAS
//     implementation (the paper's label for LAGraph+SS:GrB).
//   - BenchmarkTableII_<semiring>: a microbenchmark per Table II semiring
//     (one vxm on the Kron graph each).
//   - BenchmarkAblation_*: the substrate claims of §VI-A — bitmap format
//     for the pull direction, the lazy sort, the any.secondi early-exit,
//     TC's masked-dot vs saxpy, and push-only vs direction-optimized BFS.
//
// Scale is deliberately small (2^12) so `go test -bench=.` finishes in
// minutes; cmd/gapbench runs the same cells at larger scales.
package bench

import (
	"context"
	"sync"
	"testing"

	"lagraph/internal/bench"
	"lagraph/internal/grb"
	"lagraph/internal/lagraph"
)

const benchScale = 12

// bg is the context of every kernel call here: a benchmark loop has
// nothing to cancel.
var bg = context.Background()

var (
	loadOnce  sync.Once
	workloads map[string]*bench.Workload
	tcLoads   map[string]*bench.Workload
)

func load(b *testing.B, name string) *bench.Workload {
	b.Helper()
	loadOnce.Do(func() {
		workloads = map[string]*bench.Workload{}
		tcLoads = map[string]*bench.Workload{}
		for _, g := range bench.GraphNames {
			w, err := bench.Load(g, benchScale, 8, 1)
			if err != nil {
				panic(err)
			}
			workloads[g] = w
			tcLoads[g] = bench.TCWorkload(w)
		}
	})
	return workloads[name]
}

func cell(b *testing.B, alg, impl, graph string) {
	w := load(b, graph)
	if alg == "TC" {
		w = tcLoads[graph]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunCell(alg, impl, w, 1); err != nil && !lagraph.IsWarning(err) {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Table III: 6 algorithms × {GAP, SS} × 5 graphs

func BenchmarkTableIII_BC_GAP_Kron(b *testing.B)    { cell(b, "BC", "GAP", "Kron") }
func BenchmarkTableIII_BC_SS_Kron(b *testing.B)     { cell(b, "BC", "SS", "Kron") }
func BenchmarkTableIII_BC_GAP_Urand(b *testing.B)   { cell(b, "BC", "GAP", "Urand") }
func BenchmarkTableIII_BC_SS_Urand(b *testing.B)    { cell(b, "BC", "SS", "Urand") }
func BenchmarkTableIII_BC_GAP_Twitter(b *testing.B) { cell(b, "BC", "GAP", "Twitter") }
func BenchmarkTableIII_BC_SS_Twitter(b *testing.B)  { cell(b, "BC", "SS", "Twitter") }
func BenchmarkTableIII_BC_GAP_Web(b *testing.B)     { cell(b, "BC", "GAP", "Web") }
func BenchmarkTableIII_BC_SS_Web(b *testing.B)      { cell(b, "BC", "SS", "Web") }
func BenchmarkTableIII_BC_GAP_Road(b *testing.B)    { cell(b, "BC", "GAP", "Road") }
func BenchmarkTableIII_BC_SS_Road(b *testing.B)     { cell(b, "BC", "SS", "Road") }

func BenchmarkTableIII_BFS_GAP_Kron(b *testing.B)    { cell(b, "BFS", "GAP", "Kron") }
func BenchmarkTableIII_BFS_SS_Kron(b *testing.B)     { cell(b, "BFS", "SS", "Kron") }
func BenchmarkTableIII_BFS_GAP_Urand(b *testing.B)   { cell(b, "BFS", "GAP", "Urand") }
func BenchmarkTableIII_BFS_SS_Urand(b *testing.B)    { cell(b, "BFS", "SS", "Urand") }
func BenchmarkTableIII_BFS_GAP_Twitter(b *testing.B) { cell(b, "BFS", "GAP", "Twitter") }
func BenchmarkTableIII_BFS_SS_Twitter(b *testing.B)  { cell(b, "BFS", "SS", "Twitter") }
func BenchmarkTableIII_BFS_GAP_Web(b *testing.B)     { cell(b, "BFS", "GAP", "Web") }
func BenchmarkTableIII_BFS_SS_Web(b *testing.B)      { cell(b, "BFS", "SS", "Web") }
func BenchmarkTableIII_BFS_GAP_Road(b *testing.B)    { cell(b, "BFS", "GAP", "Road") }
func BenchmarkTableIII_BFS_SS_Road(b *testing.B)     { cell(b, "BFS", "SS", "Road") }

func BenchmarkTableIII_PR_GAP_Kron(b *testing.B)    { cell(b, "PR", "GAP", "Kron") }
func BenchmarkTableIII_PR_SS_Kron(b *testing.B)     { cell(b, "PR", "SS", "Kron") }
func BenchmarkTableIII_PR_GAP_Urand(b *testing.B)   { cell(b, "PR", "GAP", "Urand") }
func BenchmarkTableIII_PR_SS_Urand(b *testing.B)    { cell(b, "PR", "SS", "Urand") }
func BenchmarkTableIII_PR_GAP_Twitter(b *testing.B) { cell(b, "PR", "GAP", "Twitter") }
func BenchmarkTableIII_PR_SS_Twitter(b *testing.B)  { cell(b, "PR", "SS", "Twitter") }
func BenchmarkTableIII_PR_GAP_Web(b *testing.B)     { cell(b, "PR", "GAP", "Web") }
func BenchmarkTableIII_PR_SS_Web(b *testing.B)      { cell(b, "PR", "SS", "Web") }
func BenchmarkTableIII_PR_GAP_Road(b *testing.B)    { cell(b, "PR", "GAP", "Road") }
func BenchmarkTableIII_PR_SS_Road(b *testing.B)     { cell(b, "PR", "SS", "Road") }

func BenchmarkTableIII_CC_GAP_Kron(b *testing.B)    { cell(b, "CC", "GAP", "Kron") }
func BenchmarkTableIII_CC_SS_Kron(b *testing.B)     { cell(b, "CC", "SS", "Kron") }
func BenchmarkTableIII_CC_GAP_Urand(b *testing.B)   { cell(b, "CC", "GAP", "Urand") }
func BenchmarkTableIII_CC_SS_Urand(b *testing.B)    { cell(b, "CC", "SS", "Urand") }
func BenchmarkTableIII_CC_GAP_Twitter(b *testing.B) { cell(b, "CC", "GAP", "Twitter") }
func BenchmarkTableIII_CC_SS_Twitter(b *testing.B)  { cell(b, "CC", "SS", "Twitter") }
func BenchmarkTableIII_CC_GAP_Web(b *testing.B)     { cell(b, "CC", "GAP", "Web") }
func BenchmarkTableIII_CC_SS_Web(b *testing.B)      { cell(b, "CC", "SS", "Web") }
func BenchmarkTableIII_CC_GAP_Road(b *testing.B)    { cell(b, "CC", "GAP", "Road") }
func BenchmarkTableIII_CC_SS_Road(b *testing.B)     { cell(b, "CC", "SS", "Road") }

func BenchmarkTableIII_SSSP_GAP_Kron(b *testing.B)    { cell(b, "SSSP", "GAP", "Kron") }
func BenchmarkTableIII_SSSP_SS_Kron(b *testing.B)     { cell(b, "SSSP", "SS", "Kron") }
func BenchmarkTableIII_SSSP_GAP_Urand(b *testing.B)   { cell(b, "SSSP", "GAP", "Urand") }
func BenchmarkTableIII_SSSP_SS_Urand(b *testing.B)    { cell(b, "SSSP", "SS", "Urand") }
func BenchmarkTableIII_SSSP_GAP_Twitter(b *testing.B) { cell(b, "SSSP", "GAP", "Twitter") }
func BenchmarkTableIII_SSSP_SS_Twitter(b *testing.B)  { cell(b, "SSSP", "SS", "Twitter") }
func BenchmarkTableIII_SSSP_GAP_Web(b *testing.B)     { cell(b, "SSSP", "GAP", "Web") }
func BenchmarkTableIII_SSSP_SS_Web(b *testing.B)      { cell(b, "SSSP", "SS", "Web") }
func BenchmarkTableIII_SSSP_GAP_Road(b *testing.B)    { cell(b, "SSSP", "GAP", "Road") }
func BenchmarkTableIII_SSSP_SS_Road(b *testing.B)     { cell(b, "SSSP", "SS", "Road") }

func BenchmarkTableIII_TC_GAP_Kron(b *testing.B)    { cell(b, "TC", "GAP", "Kron") }
func BenchmarkTableIII_TC_SS_Kron(b *testing.B)     { cell(b, "TC", "SS", "Kron") }
func BenchmarkTableIII_TC_GAP_Urand(b *testing.B)   { cell(b, "TC", "GAP", "Urand") }
func BenchmarkTableIII_TC_SS_Urand(b *testing.B)    { cell(b, "TC", "SS", "Urand") }
func BenchmarkTableIII_TC_GAP_Twitter(b *testing.B) { cell(b, "TC", "GAP", "Twitter") }
func BenchmarkTableIII_TC_SS_Twitter(b *testing.B)  { cell(b, "TC", "SS", "Twitter") }
func BenchmarkTableIII_TC_GAP_Web(b *testing.B)     { cell(b, "TC", "GAP", "Web") }
func BenchmarkTableIII_TC_SS_Web(b *testing.B)      { cell(b, "TC", "SS", "Web") }
func BenchmarkTableIII_TC_GAP_Road(b *testing.B)    { cell(b, "TC", "GAP", "Road") }
func BenchmarkTableIII_TC_SS_Road(b *testing.B)     { cell(b, "TC", "SS", "Road") }

// ---------------------------------------------------------------------------
// Table II: one vxm per semiring on the Kron graph

func semiringBench[TC grb.Value](b *testing.B, s grb.Semiring[float64, float64, TC]) {
	w := load(b, "Kron")
	u, err := grb.VectorFromTuples(w.Edges.N, w.Sources[:16], make([]float64, 16), nil)
	if err != nil {
		b.Fatal(err)
	}
	// Give the frontier values (1.0) so valued semirings have real work.
	for _, s := range w.Sources[:16] {
		u.SetElement(1, s)
	}
	out := grb.MustVector[TC](w.Edges.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := grb.VxM(out, grb.NoVMask, nil, s, u, w.LG.A, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableII_Conventional(b *testing.B) { semiringBench(b, grb.PlusTimes[float64]()) }
func BenchmarkTableII_AnySecondI(b *testing.B) {
	semiringBench(b, grb.AnySecondI[float64, float64, int64]())
}
func BenchmarkTableII_MinPlus(b *testing.B) { semiringBench(b, grb.MinPlus[float64]()) }
func BenchmarkTableII_PlusFirst(b *testing.B) {
	semiringBench(b, grb.PlusFirst[float64, float64]())
}
func BenchmarkTableII_PlusSecond(b *testing.B) {
	semiringBench(b, grb.PlusSecond[float64, float64]())
}
func BenchmarkTableII_PlusPair(b *testing.B) {
	semiringBench(b, grb.PlusPair[float64, float64, uint64]())
}

// ---------------------------------------------------------------------------
// Ablations: the §VI-A substrate claims

// BenchmarkAblation_BFS_DirOpt_vs_PushOnly: direction optimisation wins on
// low-diameter graphs (Algorithm 2 vs Algorithm 1).
func BenchmarkAblation_BFS_DirOpt_Kron(b *testing.B) {
	w := load(b, "Kron")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := lagraph.BreadthFirstSearchAdvanced(bg, w.LG, w.Sources[i%len(w.Sources)], true, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_BFS_PushOnly_Kron(b *testing.B) {
	w := load(b, "Kron")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lagraph.BFSParentPushOnly(bg, w.LG, w.Sources[i%len(w.Sources)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_Bitmap_{On,Off}: §VI-A credits the bitmap format for
// the pull direction; disabling it forces sparse outputs everywhere. BFS's
// and BC's levels are fused steps that hold their visited sets as bitmaps
// whatever the switch says, so it is measured on PageRank, whose pull MxV
// reads the contributions w = t ÷ d as the element-wise call left them
// (Kron's isolated vertices have none): a bitmap when the switch is on,
// else a sparse list, which the pull scatters into a bitmap view and
// reads through the generic dot loop instead of its fast path.
func bitmapAblation(b *testing.B, on bool) {
	w := load(b, "Kron")
	prev := grb.SetBitmapEnabled(on)
	defer grb.SetBitmapEnabled(prev)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := lagraph.PageRankGAP(bg, w.LG, 0.85, 1e-4, 20); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_BitmapOn_PageRank(b *testing.B)  { bitmapAblation(b, true) }
func BenchmarkAblation_BitmapOff_PageRank(b *testing.B) { bitmapAblation(b, false) }

// BenchmarkAblation_LazySort_{On,Off}_TCSaxpy: §VI-A's lazy sort — "if
// the sort is lazy enough, it might never occur". The paper's examples
// are BFS and BC, whose levels are now fused steps that build their own
// frontiers, so the switch is measured where a multiply's output is still
// left jumbled: TC's saxpy formulation (Sandia LL), whose masked
// C⟨L⟩ = L·L is reduced to a scalar without ever being sorted.
func lazySortAblation(b *testing.B, on bool) {
	w := load(b, "Kron")
	prev := grb.SetLazySortEnabled(on)
	defer grb.SetLazySortEnabled(prev)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lagraph.TriangleCountAdvanced(bg, w.LG, lagraph.TCSandiaLL, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_LazySortOn_TCSaxpy(b *testing.B)  { lazySortAblation(b, true) }
func BenchmarkAblation_LazySortOff_TCSaxpy(b *testing.B) { lazySortAblation(b, false) }

// BenchmarkAblation_TC_Dot_vs_Saxpy: the paper notes SS:GrB's TC runs a
// masked dot kernel because U is transposed via the descriptor; the saxpy
// formulation (LL) is the alternative.
func BenchmarkAblation_TC_MaskedDot(b *testing.B) {
	w := load(b, "Kron")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lagraph.TriangleCountAdvanced(bg, w.LG, lagraph.TCSandiaLUT, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_TC_Saxpy(b *testing.B) {
	w := load(b, "Kron")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lagraph.TriangleCountAdvanced(bg, w.LG, lagraph.TCSandiaLL, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_TC_Presort_{On,Off}: Algorithm 6's degree-sort
// heuristic on the skewed Kron graph.
func BenchmarkAblation_TC_PresortOn(b *testing.B) {
	w := load(b, "Kron")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lagraph.TriangleCountAdvanced(bg, w.LG, lagraph.TCSandiaLUT, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_TC_PresortOff(b *testing.B) {
	w := load(b, "Kron")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lagraph.TriangleCountAdvanced(bg, w.LG, lagraph.TCSandiaLUT, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_AnyMonoid_vs_Min: the any.secondi early-exit against
// the equivalent min.secondi reduction (no early exit) in the BFS's pull
// step shape.
func anyVsMin(b *testing.B, useAny bool) {
	w := load(b, "Kron")
	n := w.Edges.N
	u := grb.DenseVector(n, int64(1))
	out := grb.MustVector[int64](n)
	s := grb.AnySecondI[float64, int64, int64]()
	if !useAny {
		s = grb.Semiring[float64, int64, int64]{
			Name: "min.secondi",
			Add:  grb.MinMonoid[int64](),
			Mul:  grb.SecondIOp[float64, int64, int64](),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := grb.MxV(out, grb.NoVMask, nil, s, w.LG.A, u, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_AnySecondI_Pull(b *testing.B) { anyVsMin(b, true) }
func BenchmarkAblation_MinSecondI_Pull(b *testing.B) { anyVsMin(b, false) }

// BenchmarkAblation_BFS_Fused vs Unfused on the Road graph: §VI-B's fusion
// (one pass instead of vxm + assign per level) measured where it matters
// most — the high-diameter class with thousands of tiny steps. The
// kernels use the fused step; the unfused side spells out Algorithm 1's
// two GraphBLAS calls here, so the product code carries no second path.
func BenchmarkAblation_BFS_Fused_Road(b *testing.B) {
	w := load(b, "Road")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lagraph.BFSParentPushOnly(bg, w.LG, w.Sources[i%len(w.Sources)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_BFS_Unfused_Road(b *testing.B) {
	w := load(b, "Road")
	n := w.Edges.N
	semiring := grb.AnySecondI[int64, float64, int64]()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := w.Sources[i%len(w.Sources)]
		p, q := grb.MustVector[int64](n), grb.MustVector[int64](n)
		lagraph.Must(p.SetElement(int64(src), src))
		lagraph.Must(q.SetElement(int64(src), src))
		for level := 1; level < n && q.NVals() > 0; level++ {
			// qᵀ⟨¬s(pᵀ), r⟩ = qᵀ any.secondi A, then p⟨s(q)⟩ = q
			if err := grb.VxM(q, grb.StructVMaskOf(p).Not(), nil, semiring, q, w.LG.A, grb.DescR); err != nil {
				b.Fatal(err)
			}
			if err := grb.AssignVector(p, grb.StructVMaskOf(q), nil, q, grb.All, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblation_Pool_{On,Off}: §VI-B's internal memory pool future
// work — scratch reuse across the thousands of small GraphBLAS calls a
// Road traversal makes. Every relaxation of Road SSSP is the fused
// min.plus push step, which borrows its sparse accumulator (the spa that
// deduplicates the targets) from the pool; with the pool off each step
// allocates one of length n.
func poolAblation(b *testing.B, on bool) {
	w := load(b, "Road")
	prev := grb.SetPoolEnabled(on)
	defer grb.SetPoolEnabled(prev)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lagraph.SSSPDeltaStepping(bg, w.LG, w.Sources[i%len(w.Sources)], 64); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_PoolOn_RoadSSSP(b *testing.B)  { poolAblation(b, true) }
func BenchmarkAblation_PoolOff_RoadSSSP(b *testing.B) { poolAblation(b, false) }
