package lagraph

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"lagraph/internal/gap"
	"lagraph/internal/gen"
	"lagraph/internal/grb"
	"lagraph/internal/parallel"
)

// TestRoadKernelAllocationBudget pins the two kernels the paper's Road row
// is about (§VI-B) on the bench's 96×96 grid, after a seeded batch of
// deletes and upserts applied the way the service applies them (a
// copy-on-write snapshot, then SetElement/RemoveElement): BC over four
// sources and delta-stepping SSSP must equal the GAP oracle on the mutated
// graph and stay inside an allocation budget per run — for BC 3.1 MiB and
// 730 allocations under four workers, under 25 % above the 2.8 MiB and 630
// its fused steps make, where Algorithm 3's calls as written made 7.1 MiB
// and 4 180 and allocating by n on every tiny-frontier call 1 286 MiB; for
// SSSP 0.19 MiB and 105 allocations, under 25 % above the 0.15 MiB and 85
// its bins of int32 vertex ids make, where (vertex, value) bin entries
// made 0.20 MiB and 88, allocating by n 440 MiB, selecting each bucket out
// of the full t 12 700 allocations and a pending vector with copies AL and
// AH of A's halves 5.2 MiB in 3 600.
// The two dense-iteration kernels run on an undirected snapshot that took
// the same batch in both orientations (the service's graphs are
// symmetrised) and still holds it as pending tuples, so FastSV and the
// PageRank pull read the matrix the registry hands them. Under four
// workers PageRank stays within 1e-9 (L1) of the oracle inside 0.45 MiB a
// run, and CC finds the oracle's partition inside 0.56 MiB and 300
// allocations. Both are under 25 % above what their full-vector loops
// make (PageRank 0.36 MiB; CC 0.45 MiB and 240 allocations), where a
// temporary per call and a copy of A's pattern cost 18 MiB each and
// 30 000 allocations.
func TestRoadKernelAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	e := gen.Road(96, 1)
	e.AddUniformWeights(7, 1, 255)
	base := graphFromEdges(t, e)
	g, err := base.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	symA, err := base.A.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sym, err := New(&symA, AdjacencyUndirected)
	if err != nil {
		t.Fatal(err)
	}

	// The mirror the oracle is built from.
	type edge struct{ u, v int32 }
	mirror, symMirror := make(map[edge]float64, len(e.Src)), make(map[edge]float64, len(e.Src))
	for k := range e.Src {
		mirror[edge{e.Src[k], e.Dst[k]}] = e.W[k]
		symMirror[edge{e.Src[k], e.Dst[k]}] = e.W[k]
	}
	// upsert and remove apply one op to g as given and to sym both ways.
	upsert := func(u, v int32, w float64) {
		t.Helper()
		mirror[edge{u, v}], symMirror[edge{u, v}], symMirror[edge{v, u}] = w, w, w
		for _, err := range []error{g.A.SetElement(w, int(u), int(v)),
			sym.A.SetElement(w, int(u), int(v)), sym.A.SetElement(w, int(v), int(u))} {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	remove := func(u, v int32) {
		t.Helper()
		delete(mirror, edge{u, v})
		delete(symMirror, edge{u, v})
		delete(symMirror, edge{v, u})
		for _, err := range []error{g.A.RemoveElement(int(u), int(v)),
			sym.A.RemoveElement(int(u), int(v)), sym.A.RemoveElement(int(v), int(u))} {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	rng := rand.New(rand.NewSource(18))
	for k := 0; k < 256; k++ {
		at := rng.Intn(len(e.Src))
		u, v := e.Src[at], e.Dst[at]
		switch k % 4 {
		case 0, 1: // delete an edge of the original graph
			remove(u, v)
		case 2: // reweight one (or bring a deleted one back)
			upsert(u, v, float64(1+rng.Intn(255)))
		default: // a new shortcut
			if v = int32(rng.Intn(e.N)); v != u {
				upsert(u, v, float64(1+rng.Intn(255)))
			}
		}
	}
	oracleOf := func(mirror map[edge]float64, directed bool) *gap.Graph {
		edges := make([]edge, 0, len(mirror))
		for ed := range mirror {
			edges = append(edges, ed)
		}
		sort.Slice(edges, func(a, b int) bool {
			return edges[a].u < edges[b].u || edges[a].u == edges[b].u && edges[a].v < edges[b].v
		})
		src, dst, w := make([]int32, len(edges)), make([]int32, len(edges)), make([]float64, len(edges))
		for k, ed := range edges {
			src[k], dst[k], w[k] = ed.u, ed.v, mirror[ed]
		}
		return gap.Build(e.N, src, dst, w, directed)
	}
	oracle, symOracle := oracleOf(mirror, true), oracleOf(symMirror, false)

	// allocated runs f twice — the pool is warm the second time, as it is
	// in a serving process — and reports the second run's bytes and
	// allocations.
	allocated := func(f func()) (mib float64, mallocs uint64) {
		f()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20), after.Mallocs - before.Mallocs
	}

	// CC first: its first run meets the batch as pending tuples.
	if sym.A.PendingTuples() == 0 {
		t.Fatal("the undirected snapshot holds no pending tuples")
	}
	// CC, PageRank and BC run under four workers: counts that follow the
	// worker count then hold on any host.
	prev := parallel.SetMaxThreads(4)
	wantComp := gap.ConnectedComponents(symOracle)
	mib, mallocs := allocated(func() {
		labels, err := ConnectedComponents(bg, sym)
		if err != nil {
			t.Fatal(err)
		}
		samePartition(t, labels, wantComp)
	})
	if mib > 0.56 || mallocs > 300 {
		t.Errorf("CC on Road 96×96 allocated %.3f MiB in %d allocations under four workers, budget 0.56 MiB and 300", mib, mallocs)
	}
	for _, prop := range []func() error{sym.PropertyAT, sym.PropertyRowDegree} {
		if err := prop(); err != nil && !IsWarning(err) {
			t.Fatal(err)
		}
	}
	wantRank, wantIters := gap.PageRank(symOracle, 0.85, 1e-4, 20)
	mib, _ = allocated(func() {
		r, iters, err := PageRankGAP(bg, sym, 0.85, 1e-4, 20)
		if err != nil {
			t.Fatal(err)
		}
		dist := 0.0
		r.Iterate(func(i int, x float64) { dist += math.Abs(x - wantRank[i]) })
		if iters != wantIters || dist > 1e-9 || r.NVals() != e.N {
			t.Fatalf("pagerank: %d iterations, %d ranks, L1 distance %g from gap's %d iterations", iters, r.NVals(), dist, wantIters)
		}
	})
	if mib > 0.45 {
		t.Errorf("PageRank on Road 96×96 allocated %.3f MiB under four workers, budget 0.45", mib)
	}

	if got := g.NumEdges(); got != len(mirror) {
		t.Fatalf("mutated graph has %d edges, mirror %d", got, len(mirror))
	}
	if err := g.PropertyAT(); err != nil && !IsWarning(err) {
		t.Fatal(err)
	}

	// The directed snapshot takes CC's other branch: FastSV on A ∪ Aᵀ,
	// built by one union-add in A's own type. Under four workers that is
	// 430 allocations, where two pattern copies before the union made 670.
	wantComp = gap.ConnectedComponents(oracle)
	_, mallocs = allocated(func() {
		labels, err := ConnectedComponents(bg, g)
		if err != nil {
			t.Fatal(err)
		}
		samePartition(t, labels, wantComp)
	})
	if mallocs > 520 {
		t.Errorf("CC on the directed Road 96×96 made %d allocations under four workers, budget 520", mallocs)
	}

	sources := []int{0, e.N / 3, e.N / 2, e.N - 1}
	sources32 := make([]int32, len(sources))
	for k, s := range sources {
		sources32[k] = int32(s)
	}
	wantBC := gap.BC(oracle, sources32)
	mib, mallocs = allocated(func() {
		c, err := BetweennessCentralityAdvanced(bg, g, sources)
		if err != nil {
			t.Fatal(err)
		}
		c.Iterate(func(i int, x float64) {
			if math.Abs(x-wantBC[i]) > 1e-6*(1+math.Abs(wantBC[i])) {
				t.Fatalf("bc(%d) = %v, gap %v", i, x, wantBC[i])
			}
		})
	})
	parallel.SetMaxThreads(prev)
	if mib > 3.1 || mallocs > 730 {
		t.Errorf("BC on Road 96×96 allocated %.2f MiB in %d allocations under four workers, budget 3.1 MiB and 730", mib, mallocs)
	}

	const delta = 64
	wantDist := gap.SSSPDelta(oracle, 0, delta)
	mib, mallocs = allocated(func() {
		d, err := SSSPDeltaStepping(bg, g, 0, delta)
		if err != nil {
			t.Fatal(err)
		}
		d.Iterate(func(i int, x float64) {
			if want := float64(wantDist[i]); x != want && !(math.IsInf(want, 1) && !Reachable(x)) {
				t.Fatalf("dist(%d) = %v, gap %v", i, x, want)
			}
		})
	})
	if mib > 0.19 || mallocs > 105 {
		t.Errorf("SSSP on Road 96×96 allocated %.3f MiB in %d allocations, budget 0.19 MiB and 105", mib, mallocs)
	}
	if n := base.NumEdges(); n != len(e.Src) {
		t.Fatalf("the snapshot's base moved: %d edges, want %d", n, len(e.Src))
	}
}

// TestTriangleCountAllocationBudget: TC on Kron graphs, which it orders by
// degree rank, allocates per block of each row build, not per row — at
// scale 12 and at scale 14, four times the rows, under four workers, within
// 600 allocations a run (438–462 measured at either scale; a mask-row
// visitor and dot callback a row, or a general merge into the empty C, cost
// 15 000 and 50 000) — and counts what the GAP oracle counts.
func TestTriangleCountAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	prev := parallel.SetMaxThreads(4)
	defer parallel.SetMaxThreads(prev)
	for _, scale := range []int{12, 14} {
		e := gen.Kron(scale, 8, 1)
		g := graphFromEdges(t, e)
		want := gap.TriangleCount(gap.Build(e.N, e.Src, e.Dst, nil, false))
		var mallocs uint64
		for run := 0; run < 2; run++ { // the second run meets warm pools and cached properties
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got, err := TriangleCount(bg, g)
			runtime.ReadMemStats(&after)
			if err != nil && !IsWarning(err) {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("scale %d: %d triangles, gap %d", scale, got, want)
			}
			mallocs = after.Mallocs - before.Mallocs
		}
		if mallocs > 600 {
			t.Errorf("TC on Kron scale %d (%d rows) made %d allocations, budget 600", scale, e.N, mallocs)
		}
	}
}

// TestDegreesAllocateByN: the degree properties are counted from A's
// structure in place, so on a directed graph with 32 entries a row both
// RowDegree and ColDegree (no AT cached) allocate O(n) bytes — under 4 B
// per stored entry, where a valued copy of A costs 16 — and both equal
// the row and column counts of A's tuples.
func TestDegreesAllocateByN(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	const n, perRow = 1 << 12, 32
	rng := rand.New(rand.NewSource(31))
	rows, cols, vals := make([]int, 0, n*perRow), make([]int, 0, n*perRow), make([]float64, 0, n*perRow)
	for i := 0; i < n; i++ {
		for k := 0; k < perRow; k++ {
			rows, cols, vals = append(rows, i), append(cols, rng.Intn(n)), append(vals, 1)
		}
	}
	A, err := grb.MatrixFromTuples(n, n, rows, cols, vals, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(&A, AdjacencyDirected)
	if err != nil {
		t.Fatal(err)
	}
	wantRow, wantCol := make([]int64, n), make([]int64, n)
	r, c, _ := g.A.ExtractTuples()
	for k := range r {
		wantRow[r[k]]++
		wantCol[c[k]]++
	}
	for _, p := range []struct {
		name    string
		compute func() error
		cached  func() *grb.Vector[int64]
		want    []int64
	}{
		{"RowDegree", g.PropertyRowDegree, g.CachedRowDegree, wantRow},
		{"ColDegree", g.PropertyColDegree, g.CachedColDegree, wantCol},
	} {
		var bytes uint64
		for run := 0; run < 2; run++ { // the second run meets warm pools
			g.DeleteProperties()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := p.compute(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			bytes = after.TotalAlloc - before.TotalAlloc
		}
		if g.CachedAT() != nil {
			t.Fatalf("%s cached AT", p.name)
		}
		got := make([]int64, n)
		p.cached().Iterate(func(i int, d int64) { got[i] = d })
		for i := range got {
			if got[i] != p.want[i] {
				t.Fatalf("%s[%d] = %d, want %d", p.name, i, got[i], p.want[i])
			}
		}
		perEntry := float64(bytes) / float64(g.NumEdges())
		t.Logf("%s allocated %d B: %.2f B per stored entry, %.1f B per vertex", p.name, bytes, perEntry, float64(bytes)/n)
		if perEntry >= 4 {
			t.Errorf("%s allocated %d B, %.2f B per stored entry: want O(n), under 4", p.name, bytes, perEntry)
		}
	}
}

// TestBFSOnDenseMatrixAllocatesByN: the fused step reads a bitmap or full
// A in place, so BFS over a full (complete) A of 1 024 vertices — a push
// that reaches every vertex, then a pull that finds none left — allocates
// under 64 B a vertex a level, where one sparse copy of A's pattern costs
// 8 MiB; Algorithm 1's push-only loop likewise.
func TestBFSOnDenseMatrixAllocatesByN(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	const n = 1024
	A := grb.MustMatrix[float64](n, n)
	if err := grb.AssignMatrixScalar(A, grb.NoMask, nil, 1.0, grb.All, grb.All, nil); err != nil {
		t.Fatal(err)
	}
	g, err := New(&A, AdjacencyDirected)
	if err != nil {
		t.Fatal(err)
	}
	for _, property := range []func() error{g.PropertyAT, g.PropertyRowDegree} {
		if err := property(); err != nil && !IsWarning(err) {
			t.Fatal(err)
		}
	}
	if g.A.Format() != grb.FormatFull || g.CachedAT().Format() != grb.FormatFull {
		t.Fatalf("A is %v and AT %v, want both full", g.A.Format(), g.CachedAT().Format())
	}
	for _, c := range []struct {
		name string
		bfs  func(ctx context.Context) (*grb.Vector[int64], error)
	}{
		{"BreadthFirstSearchAdvanced", func(ctx context.Context) (*grb.Vector[int64], error) {
			p, _, err := BreadthFirstSearchAdvanced(ctx, g, 0, true, true)
			return p, err
		}},
		{"BFSParentPushOnly", func(ctx context.Context) (*grb.Vector[int64], error) { return BFSParentPushOnly(ctx, g, 0) }},
	} {
		var bytes uint64
		var levels int
		for run := 0; run < 2; run++ { // the second run meets warm pools
			ctx := &pollCtx{Context: bg}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			p, err := c.bfs(ctx)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if p.NVals() != n {
				t.Fatalf("%s reached %d of %d vertices", c.name, p.NVals(), n)
			}
			bytes, levels = after.TotalAlloc-before.TotalAlloc, ctx.polls
		}
		t.Logf("%s: %d B over %d levels, %.1f B a vertex a level", c.name, bytes, levels, float64(bytes)/float64(levels*n))
		if bytes > uint64(64*levels*n) {
			t.Errorf("%s allocated %d B over %d levels: want under 64 B a vertex a level", c.name, bytes, levels)
		}
	}
}

// samePartition fails unless labels and the oracle's components map one to
// one.
func samePartition(t *testing.T, labels *grb.Vector[int64], want []int32) {
	t.Helper()
	to, from := map[int64]int32{}, map[int32]int64{}
	labels.Iterate(func(i int, l int64) {
		c := want[i]
		if x, ok := to[l]; ok && x != c {
			t.Fatalf("label %d spans components %d and %d", l, x, c)
		}
		if x, ok := from[c]; ok && x != l {
			t.Fatalf("component %d carries labels %d and %d", c, x, l)
		}
		to[l], from[c] = c, l
	})
	if labels.NVals() != len(want) {
		t.Fatalf("%d labels for %d vertices", labels.NVals(), len(want))
	}
}

// TestSSSPTinyDeltaAllocationBudget: bins are found by number, not indexed
// by it, so on Road 32×32 with weights in [1, 255] SSSP at Δ = 1e-12 —
// bin numbers up to about 10¹⁶, 887 buckets for 1 024 vertices — computes
// the distances it computes at Δ = 64 inside 37 KiB a run (26 or 31 KB
// measured, as the bin map's hash seed falls; 17 KB at Δ = 64), where a
// slice indexed by bin number would want 10¹⁶ slots.
func TestSSSPTinyDeltaAllocationBudget(t *testing.T) {
	e := gen.Road(32, 1)
	e.AddUniformWeights(7, 1, 255)
	g := weightedGraph[float64](t, e)
	want, err := SSSPDeltaStepping(bg, g, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	prb := NewProbe(1 << 20)
	if _, err := SSSPDeltaStepping(WithProbe(bg, prb), g, 0, 1e-12); err != nil {
		t.Fatal(err)
	}
	if buckets := len(prb.Snapshot().Iters); buckets < e.N/2 {
		t.Fatalf("Δ = 1e-12 ran %d buckets for %d vertices", buckets, e.N)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := SSSPDeltaStepping(bg, g, 0, 1e-12)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if same, err := VectorIsEqual(got, want); err != nil || !same {
		t.Fatalf("Δ = 1e-12 and Δ = 64 disagree on distances (%v)", err)
	}
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("Δ = 1e-12: %d B a run", bytes)
	if !raceEnabled && bytes > 37<<10 {
		t.Errorf("SSSP at Δ = 1e-12 on Road 32×32 allocated %d B, budget 37 KiB", bytes)
	}
}

// TestSSSPKronAllocationBudget: on Kron 12 with weights in [1, 255] at
// Δ = 64, SSSP computes gap's distances inside 320 KiB a run, under 25 %
// above the 264 KB its bins of int32 vertex ids make, where 16-byte
// (vertex, value) bin entries made 546 KB. Kron's hubs lower many
// vertices many times, so the bins' entries are most of what a run
// allocates.
func TestSSSPKronAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	e := gen.Kron(12, 8, 1)
	e.AddUniformWeights(7, 1, 255)
	g := weightedGraph[float64](t, e)
	src := int(e.Src[0])
	want := gap.SSSPDelta(gap.Build(e.N, e.Src, e.Dst, e.W, e.Directed), int32(src), 64)
	var bytes uint64
	for run := 0; run < 2; run++ { // the second run is measured
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d, err := SSSPDeltaStepping(bg, g, src, 64)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		sameDistances(t, "Kron 12", d, want)
		bytes = after.TotalAlloc - before.TotalAlloc
	}
	t.Logf("Kron 12, Δ = 64: %d B a run", bytes)
	if bytes > 320<<10 {
		t.Errorf("SSSP on Kron 12 at Δ = 64 allocated %d B, budget 320 KiB", bytes)
	}
}
