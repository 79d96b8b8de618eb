package lagraph

import (
	"container/heap"
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"lagraph/internal/grb"
	"lagraph/internal/parallel"
)

// ---------------------------------------------------------------------------
// reference implementations for cross-validation

// refBFSLevels returns hop distances via a plain queue BFS (-1 unreached).
func refBFSLevels(adj [][]int, src int) []int {
	n := len(adj)
	lev := make([]int, n)
	for i := range lev {
		lev[i] = -1
	}
	lev[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if lev[v] < 0 {
				lev[v] = lev[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return lev
}

// checkParents validates a BFS parent vector against reference levels:
// every reached vertex must have a parent one level closer with an edge to
// it; unreached vertices must be absent.
func checkParents[T grb.Value](t *testing.T, g *Graph[T], src int, parent *grb.Vector[int64], label string) {
	t.Helper()
	adj := adjacencyList(g.A)
	lev := refBFSLevels(adj, src)
	n := len(adj)
	seen := map[int]int64{}
	parent.Iterate(func(i int, p int64) { seen[i] = p })
	for i := 0; i < n; i++ {
		p, ok := seen[i]
		if lev[i] < 0 {
			if ok {
				t.Fatalf("%s: unreachable vertex %d has parent %d", label, i, p)
			}
			continue
		}
		if !ok {
			t.Fatalf("%s: reachable vertex %d (level %d) has no parent", label, i, lev[i])
		}
		if i == src {
			if p != int64(src) {
				t.Fatalf("%s: source parent = %d", label, p)
			}
			continue
		}
		if lev[int(p)] != lev[i]-1 {
			t.Fatalf("%s: vertex %d level %d has parent %d at level %d", label, i, lev[i], p, lev[int(p)])
		}
		if _, err := g.A.ExtractElement(int(p), i); err != nil {
			t.Fatalf("%s: no edge %d->%d for claimed parent", label, p, i)
		}
	}
}

// refDijkstra computes shortest path distances.
func refDijkstra(A *grb.Matrix[float64], src int) []float64 {
	n := A.NRows()
	type edge struct {
		to int
		w  float64
	}
	adj := make([][]edge, n)
	rows, cols, vals := A.ExtractTuples()
	for k := range rows {
		adj[rows[k]] = append(adj[rows[k]], edge{cols[k], vals[k]})
	}
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	pq := &distHeap{{src, 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(distItem)
		if it.d > dist[it.v] {
			continue
		}
		for _, e := range adj[it.v] {
			if nd := it.d + e.w; nd < dist[e.to] {
				dist[e.to] = nd
				heap.Push(pq, distItem{e.to, nd})
			}
		}
	}
	return dist
}

type distItem struct {
	v int
	d float64
}
type distHeap []distItem

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// refTriangles counts triangles by brute force.
func refTriangles(A *grb.Matrix[float64]) int64 {
	n := A.NRows()
	has := map[[2]int]bool{}
	rows, cols, _ := A.ExtractTuples()
	for k := range rows {
		has[[2]int{rows[k], cols[k]}] = true
	}
	var count int64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !has[[2]int{i, j}] {
				continue
			}
			for k := j + 1; k < n; k++ {
				if has[[2]int{i, k}] && has[[2]int{j, k}] {
					count++
				}
			}
		}
	}
	return count
}

// refComponents labels components with union-find.
func refComponents(A *grb.Matrix[float64]) []int {
	n := A.NRows()
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	rows, cols, _ := A.ExtractTuples()
	for k := range rows {
		a, b := find(rows[k]), find(cols[k])
		if a != b {
			parent[a] = b
		}
	}
	out := make([]int, n)
	for i := range out {
		out[i] = find(i)
	}
	return out
}

// refBrandes computes exact betweenness restricted to the given sources.
func refBrandes(adj [][]int, sources []int) []float64 {
	n := len(adj)
	bc := make([]float64, n)
	for _, s := range sources {
		sigma := make([]float64, n)
		dist := make([]int, n)
		for i := range dist {
			dist[i] = -1
		}
		sigma[s] = 1
		dist[s] = 0
		var order []int
		queue := []int{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			order = append(order, u)
			for _, v := range adj[u] {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
				if dist[v] == dist[u]+1 {
					sigma[v] += sigma[u]
				}
			}
		}
		delta := make([]float64, n)
		for i := len(order) - 1; i >= 0; i-- {
			u := order[i]
			for _, v := range adj[u] {
				if dist[v] == dist[u]+1 && sigma[v] > 0 {
					delta[u] += sigma[u] / sigma[v] * (1 + delta[v])
				}
			}
			if u != s {
				bc[u] += delta[u]
			}
		}
	}
	return bc
}

// ---------------------------------------------------------------------------
// BFS (Algorithms 1 and 2)

func TestBFSParentPushOnlyRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 15; trial++ {
		n := 5 + rng.Intn(30)
		g := mustGraph(t, randDigraph(rng, n, 0.15), AdjacencyDirected)
		src := rng.Intn(n)
		p, err := BFSParentPushOnly(bg, g, src)
		if err != nil {
			t.Fatal(err)
		}
		checkParents(t, g, src, p, "push-only")
	}
}

func TestBFSParentDirectionOptimizing(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 10; trial++ {
		n := 10 + rng.Intn(40)
		g := mustGraph(t, randDigraph(rng, n, 0.2), AdjacencyDirected)
		src := rng.Intn(n)
		// Advanced mode demands properties.
		if _, _, err := BreadthFirstSearchAdvanced(bg, g, src, true, false); StatusOf(err) != StatusPropertyMissing {
			t.Fatalf("advanced BFS without properties: %v", err)
		}
		g.PropertyAT()
		g.PropertyRowDegree()
		p, _, err := BreadthFirstSearchAdvanced(bg, g, src, true, false)
		if err != nil {
			t.Fatal(err)
		}
		checkParents(t, g, src, p, "dir-opt")
	}
}

func TestBFSLevelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		n := 5 + rng.Intn(40)
		g := mustGraph(t, randUndirected(rng, n, 0.1, 1), AdjacencyUndirected)
		src := rng.Intn(n)
		g.PropertyAT()
		g.PropertyRowDegree()
		_, l, err := BreadthFirstSearchAdvanced(bg, g, src, false, true)
		if err != nil {
			t.Fatal(err)
		}
		ref := refBFSLevels(adjacencyList(g.A), src)
		got := map[int]int32{}
		l.Iterate(func(i int, x int32) { got[i] = x })
		for i, want := range ref {
			x, ok := got[i]
			if want < 0 {
				if ok {
					t.Fatalf("unreached %d has level", i)
				}
				continue
			}
			if !ok || int(x) != want {
				t.Fatalf("level(%d) = %v want %d", i, x, want)
			}
		}
	}
}

func TestBreadthFirstSearchBasicCachesProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	g := mustGraph(t, randDigraph(rng, 20, 0.2), AdjacencyDirected)
	p, l, err := BreadthFirstSearch(bg, g, 0, true, true)
	if err != nil && !IsWarning(err) {
		t.Fatal(err)
	}
	if !IsWarning(err) {
		t.Fatal("basic mode should warn that it cached properties")
	}
	if g.AT == nil || g.RowDegree == nil {
		t.Fatal("basic mode did not cache properties")
	}
	if p == nil || l == nil {
		t.Fatal("missing outputs")
	}
	checkParents(t, g, 0, p, "basic")
}

func TestBFSSourceValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	g := mustGraph(t, randDigraph(rng, 5, 0.3), AdjacencyDirected)
	if _, err := BFSParentPushOnly(bg, g, -1); StatusOf(err) != StatusInvalidValue {
		t.Fatal("negative source accepted")
	}
	if _, err := BFSParentPushOnly(bg, g, 5); StatusOf(err) != StatusInvalidValue {
		t.Fatal("out-of-range source accepted")
	}
}

func TestBFSDisconnectedGraph(t *testing.T) {
	// Two components: 0-1, 2-3.
	A, _ := grb.MatrixFromTuples(4, 4,
		[]int{0, 1, 2, 3}, []int{1, 0, 3, 2}, []float64{1, 1, 1, 1}, nil)
	g := mustGraph(t, A, AdjacencyUndirected)
	p, err := BFSParentPushOnly(bg, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.NVals() != 2 {
		t.Fatalf("reached %d vertices, want 2", p.NVals())
	}
}

func TestBFSStepBatchMode(t *testing.T) {
	// The in/out-argument batch mode of §II-C: the caller owns the loop
	// and the frontier; stepping manually must match the one-shot BFS.
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 8; trial++ {
		n := 10 + rng.Intn(30)
		g := mustGraph(t, randDigraph(rng, n, 0.2), AdjacencyDirected)
		src := rng.Intn(n)
		p := grb.MustVector[int64](n)
		q := grb.MustVector[int64](n)
		p.SetElement(int64(src), src)
		q.SetElement(int64(src), src)
		steps := 0
		for q.NVals() > 0 && steps < n {
			if err := BFSStep(g, p, q); err != nil {
				t.Fatal(err)
			}
			steps++
		}
		checkParents(t, g, src, p, "batch-mode")
		// The step count equals the eccentricity + 1 (the empty step).
		lev := refBFSLevels(adjacencyList(g.A), src)
		maxLev := 0
		for _, l := range lev {
			if l > maxLev {
				maxLev = l
			}
		}
		if steps != maxLev+1 {
			t.Fatalf("took %d steps, eccentricity %d", steps, maxLev)
		}
	}
}

// TestBFSWorkerCount: a pull level is cut by vertex and each vertex's
// parent is its first frontier in-neighbour in Aᵀ's row, so BFS's parents
// and levels on Kron scale 13, whose widest levels pull, are the same
// under one worker and under four.
func TestBFSWorkerCount(t *testing.T) {
	g := warmGraph(t, 13)
	run := func(workers int) (p []int64, l []int32, pulls int) {
		defer parallel.SetMaxThreads(parallel.SetMaxThreads(workers))
		prb := NewProbe(1 << 10)
		parents, levels, err := BreadthFirstSearchAdvanced(WithProbe(bg, prb), g, 0, true, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range prb.Snapshot().Iters {
			if it.Direction == "pull" && it.Frontier > 0 {
				pulls++
			}
		}
		_, p = parents.ExtractTuples()
		_, l = levels.ExtractTuples()
		return p, l, pulls
	}
	p1, l1, pulls := run(1)
	p4, l4, _ := run(4)
	if pulls == 0 || len(p1) < g.NumNodes()/2 {
		t.Fatalf("%d pull levels reaching %d of %d vertices: nothing to cut", pulls, len(p1), g.NumNodes())
	}
	if !slices.Equal(p1, p4) || !slices.Equal(l1, l4) {
		t.Fatal("parents or levels differ between one worker and four")
	}
}

func TestBFSStepValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	g := mustGraph(t, randDigraph(rng, 5, 0.3), AdjacencyDirected)
	p := grb.MustVector[int64](3)
	q := grb.MustVector[int64](5)
	if err := BFSStep(g, p, q); StatusOf(err) != StatusInvalidValue {
		t.Fatal("length mismatch accepted")
	}
}

// ---------------------------------------------------------------------------
// PageRank (Algorithm 4)

// refPageRankDense runs the dangling-safe power iteration densely.
func refPageRankDense(A *grb.Matrix[float64], damping float64, iters int) []float64 {
	n := A.NRows()
	outdeg := make([]float64, n)
	rows, cols, _ := A.ExtractTuples()
	for k := range rows {
		outdeg[rows[k]]++
	}
	r := make([]float64, n)
	for i := range r {
		r[i] = 1 / float64(n)
	}
	for it := 0; it < iters; it++ {
		next := make([]float64, n)
		base := (1 - damping) / float64(n)
		var dangling float64
		for i := 0; i < n; i++ {
			if outdeg[i] == 0 {
				dangling += r[i]
			}
		}
		for i := range next {
			next[i] = base + damping*dangling/float64(n)
		}
		for k := range rows {
			next[cols[k]] += damping * r[rows[k]] / outdeg[rows[k]]
		}
		r = next
	}
	return r
}

func TestPageRankGXMatchesDensePowerIteration(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 5; trial++ {
		n := 8 + rng.Intn(25)
		g := mustGraph(t, randDigraph(rng, n, 0.2), AdjacencyDirected)
		g.PropertyAT()
		g.PropertyRowDegree()
		iters := 30
		r, _, err := PageRankGX(bg, g, 0.85, 0, iters) // tol 0: run all iters
		if err != nil {
			t.Fatal(err)
		}
		ref := refPageRankDense(g.A, 0.85, iters)
		r.Iterate(func(i int, x float64) {
			if math.Abs(x-ref[i]) > 1e-9 {
				t.Fatalf("rank(%d) = %.12f want %.12f", i, x, ref[i])
			}
		})
	}
}

func TestPageRankGXSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	g := mustGraph(t, randDigraph(rng, 30, 0.15), AdjacencyDirected)
	g.PropertyAT()
	g.PropertyRowDegree()
	r, _, err := PageRankGX(bg, g, 0.85, 1e-10, 200)
	if err != nil {
		t.Fatal(err)
	}
	sum := grb.ReduceVectorToScalar(grb.PlusMonoid[float64](), r)
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("GX ranks sum to %v, want 1", sum)
	}
}

func TestPageRankGAPLeaksRankAtSinks(t *testing.T) {
	// A graph with a sink: 0->1, 1->2, 2 is a sink. The GAP variant leaks
	// rank (sum < 1); the paper calls this out explicitly.
	A, _ := grb.MatrixFromTuples(3, 3, []int{0, 1}, []int{1, 2}, []float64{1, 1}, nil)
	g := mustGraph(t, A, AdjacencyDirected)
	g.PropertyAT()
	g.PropertyRowDegree()
	r, _, err := PageRankGAP(bg, g, 0.85, 1e-9, 100)
	if err != nil {
		t.Fatal(err)
	}
	sum := grb.ReduceVectorToScalar(grb.PlusMonoid[float64](), r)
	if sum >= 0.999 {
		t.Fatalf("GAP variant should leak rank at sinks, sum=%v", sum)
	}
	rGX, _, err := PageRankGX(bg, g, 0.85, 1e-12, 500)
	if err != nil {
		t.Fatal(err)
	}
	sumGX := grb.ReduceVectorToScalar(grb.PlusMonoid[float64](), rGX)
	if math.Abs(sumGX-1) > 1e-6 {
		t.Fatalf("GX variant should conserve rank, sum=%v", sumGX)
	}
}

func TestPageRankRanksHubsHigher(t *testing.T) {
	// Star pointing at vertex 0: everyone links to 0.
	var rows, cols []int
	var vals []float64
	for i := 1; i < 10; i++ {
		rows = append(rows, i)
		cols = append(cols, 0)
		vals = append(vals, 1)
	}
	A, _ := grb.MatrixFromTuples(10, 10, rows, cols, vals, nil)
	g := mustGraph(t, A, AdjacencyDirected)
	r, _, err := PageRank(bg, g, 0.85, 1e-9, 100)
	if err != nil && !IsWarning(err) {
		t.Fatal(err)
	}
	r0, _ := r.ExtractElement(0)
	r1, _ := r.ExtractElement(1)
	if r0 <= r1 {
		t.Fatalf("hub rank %v should beat leaf rank %v", r0, r1)
	}
}

// TestPageRankValidation: the advanced entry points need AT and RowDegree
// cached, and every entry point rejects a damping outside (0, 1) — NaN
// included, which would otherwise run itermax sweeps to all-NaN ranks —
// on an empty graph as on any other.
func TestPageRankValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	g := mustGraph(t, randDigraph(rng, 5, 0.3), AdjacencyDirected)
	if _, _, err := PageRankGAP(bg, g, 0.85, 1e-4, 10); StatusOf(err) != StatusPropertyMissing {
		t.Fatal("advanced PR without properties must fail")
	}
	empty := mustGraph(t, grb.MustMatrix[float64](0, 0), AdjacencyDirected)
	for _, g := range []*Graph[float64]{g, empty} {
		g.PropertyAT()
		g.PropertyRowDegree()
	}
	for _, damping := range []float64{1.5, 2, 0, 1, -0.5, math.NaN(), math.Inf(1)} {
		for _, g := range []*Graph[float64]{g, empty} {
			for _, pr := range []func(context.Context, *Graph[float64], float64, float64, int) (*grb.Vector[float64], int, error){
				PageRank[float64], PageRankGAP[float64], PageRankGX[float64]} {
				if r, _, err := pr(bg, g, damping, 1e-4, 10); StatusOf(err) != StatusInvalidValue || r != nil {
					t.Fatalf("damping %v on %d nodes: err %v", damping, g.NumNodes(), err)
				}
			}
		}
	}
	if r, iters, err := PageRank(bg, empty, 0.85, 1e-4, 10); err != nil && !IsWarning(err) || r.Size() != 0 || iters != 0 {
		t.Fatalf("empty graph: %v, %d iterations", err, iters)
	}
}

// ---------------------------------------------------------------------------
// Triangle counting (Algorithm 6)

func TestTriangleCountMethodsAgreeWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 10; trial++ {
		n := 6 + rng.Intn(25)
		g := mustGraph(t, randUndirected(rng, n, 0.25, 1), AdjacencyUndirected)
		want := refTriangles(g.A)
		got, err := TriangleCount(bg, g)
		if err != nil && !IsWarning(err) {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("TriangleCount = %d, brute force = %d", got, want)
		}
		g.PropertyRowDegree()
		for _, m := range []TCMethod{TCSandiaLUT, TCSandiaLL, TCBurkhardt, TCCohen} {
			for _, presort := range []bool{false, true} {
				prb := NewProbe(0)
				got, err := TriangleCountAdvanced(WithProbe(bg, prb), g, m, presort)
				if err != nil {
					t.Fatalf("%v, presort %v: %v", m, presort, err)
				}
				if got != want {
					t.Fatalf("%v, presort %v = %d, want %d", m, presort, got, want)
				}
				if method := prb.Snapshot().Method; method != m.String() {
					t.Fatalf("%v, presort %v: probe method %q", m, presort, method)
				}
			}
		}
	}
	g := mustGraph(t, randUndirected(rng, 8, 0.3, 1), AdjacencyUndirected)
	if _, err := TriangleCountAdvanced(bg, g, TCCohen+1, true); StatusOf(err) != StatusInvalidValue {
		t.Fatalf("unknown method: %v, want an invalid value before the presort's missing RowDegree", err)
	}
}

func TestTriangleCountStripsSelfEdges(t *testing.T) {
	// Triangle plus self loops.
	rows := []int{0, 1, 1, 2, 2, 0, 0, 1}
	cols := []int{1, 0, 2, 1, 0, 2, 0, 1}
	vals := make([]float64, len(rows))
	for i := range vals {
		vals[i] = 1
	}
	A, _ := grb.MatrixFromTuples(3, 3, rows, cols, vals, nil)
	g := mustGraph(t, A, AdjacencyUndirected)
	got, err := TriangleCount(bg, g)
	if err != nil && !IsWarning(err) {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("triangles = %d, want 1 (self edges ignored)", got)
	}
	// The original graph must be untouched.
	if g.A.NVals() != len(rows) {
		t.Fatal("TriangleCount mutated the input graph")
	}
}

func TestTriangleCountRequiresUndirected(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := mustGraph(t, randDigraph(rng, 5, 0.4), AdjacencyDirected)
	if _, err := TriangleCount(bg, g); StatusOf(err) != StatusInvalidGraph {
		t.Fatal("directed graph accepted")
	}
}

// ---------------------------------------------------------------------------
// Connected components (Algorithm 7)

func TestConnectedComponentsMatchUnionFind(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 10; trial++ {
		n := 5 + rng.Intn(60)
		g := mustGraph(t, randUndirected(rng, n, 2.0/float64(n), 1), AdjacencyUndirected)
		f, err := ConnectedComponents(bg, g)
		if err != nil {
			t.Fatal(err)
		}
		want := refComponents(g.A)
		got := make([]int64, n)
		f.Iterate(func(i int, x int64) { got[i] = x })
		// Same partition: equal labels iff equal reference roots.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if (want[i] == want[j]) != (got[i] == got[j]) {
					t.Fatalf("partition mismatch at (%d,%d): ref %v/%v got %v/%v",
						i, j, want[i], want[j], got[i], got[j])
				}
			}
		}
		// FastSV labels components by their minimum vertex id.
		for i := 0; i < n; i++ {
			if got[i] > int64(i) {
				t.Fatalf("label %d > vertex %d", got[i], i)
			}
		}
	}
}

func TestConnectedComponentsDirectedWeak(t *testing.T) {
	// 0->1, 2->1: weakly connected as one component.
	A, _ := grb.MatrixFromTuples(4, 4, []int{0, 2}, []int{1, 1}, []float64{1, 1}, nil)
	g := mustGraph(t, A, AdjacencyDirected)
	f, err := ConnectedComponents(bg, g)
	if err != nil && !IsWarning(err) {
		t.Fatal(err)
	}
	c0, _ := f.ExtractElement(0)
	c1, _ := f.ExtractElement(1)
	c2, _ := f.ExtractElement(2)
	c3, _ := f.ExtractElement(3)
	if c0 != c1 || c1 != c2 {
		t.Fatalf("weak component split: %d %d %d", c0, c1, c2)
	}
	if c3 == c0 {
		t.Fatal("isolated vertex merged")
	}

	// Random digraphs: the partition of A ∪ Aᵀ, labelled by its least vertex.
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 10; trial++ {
		n := 5 + rng.Intn(60)
		g := mustGraph(t, randDigraph(rng, n, 1.0/float64(n)), AdjacencyDirected)
		f, err := ConnectedComponents(bg, g)
		if err != nil && !IsWarning(err) {
			t.Fatal(err)
		}
		want := refComponents(g.A) // it unions both ends of each edge: A ∪ Aᵀ
		least := map[int]int64{}
		for i := n - 1; i >= 0; i-- {
			least[want[i]] = int64(i)
		}
		f.Iterate(func(i int, x int64) {
			if x != least[want[i]] {
				t.Fatalf("trial %d: label(%d) = %d, want the least vertex %d of its weak component", trial, i, x, least[want[i]])
			}
		})
		if f.NVals() != n {
			t.Fatalf("trial %d: %d labels for %d vertices", trial, f.NVals(), n)
		}
	}
}

func TestConnectedComponentsAdvancedValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	g := mustGraph(t, randDigraph(rng, 6, 0.3), AdjacencyDirected)
	if _, err := ConnectedComponentsAdvanced(bg, g); StatusOf(err) != StatusPropertyMissing {
		t.Fatal("advanced CC must demand symmetry knowledge")
	}
}

// ---------------------------------------------------------------------------
// SSSP (Algorithm 5)

func TestSSSPMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 10; trial++ {
		n := 5 + rng.Intn(40)
		g := mustGraph(t, randUndirected(rng, n, 0.15, 10), AdjacencyUndirected)
		src := rng.Intn(n)
		for _, delta := range []float64{1, 3, 100} {
			d, err := SSSPDeltaStepping(bg, g, src, delta)
			if err != nil {
				t.Fatal(err)
			}
			ref := refDijkstra(g.A, src)
			d.Iterate(func(i int, x float64) {
				if math.IsInf(ref[i], 1) {
					if !math.IsInf(x, 1) {
						t.Fatalf("delta=%v: unreachable %d got %v", delta, i, x)
					}
					return
				}
				if math.Abs(x-ref[i]) > 1e-9 {
					t.Fatalf("delta=%v: dist(%d) = %v want %v", delta, i, x, ref[i])
				}
			})
		}
	}
}

func TestSSSPDirectedWeighted(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 8; trial++ {
		n := 5 + rng.Intn(30)
		A := randDigraph(rng, n, 0.2)
		// Reweight edges 1..9.
		rows, cols, vals := A.ExtractTuples()
		for k := range vals {
			vals[k] = float64(1 + rng.Intn(9))
		}
		W, _ := grb.MatrixFromTuples(n, n, rows, cols, vals, nil)
		g := mustGraph(t, W, AdjacencyDirected)
		d, err := SingleSourceShortestPath(bg, g, 0, 0) // heuristic delta
		if err != nil {
			t.Fatal(err)
		}
		ref := refDijkstra(g.A, 0)
		for i := 0; i < n; i++ {
			x, _ := d.ExtractElement(i)
			if math.IsInf(ref[i], 1) {
				if !math.IsInf(x, 1) {
					t.Fatalf("unreachable %d got %v", i, x)
				}
				continue
			}
			if math.Abs(x-ref[i]) > 1e-9 {
				t.Fatalf("dist(%d) = %v want %v", i, x, ref[i])
			}
		}
	}
}

func TestSSSPIntegerWeights(t *testing.T) {
	// The generic delta-stepping must work on integer weight types, where
	// "unreached" is MaxOf[int64] and relaxations must never overflow
	// (buckets only ever contain finite tentative distances).
	rng := rand.New(rand.NewSource(64))
	for trial := 0; trial < 6; trial++ {
		n := 8 + rng.Intn(25)
		var rows, cols []int
		var vals []int64
		var fvals []float64
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rng.Float64() < 0.2 {
					w := int64(1 + rng.Intn(9))
					rows = append(rows, i)
					cols = append(cols, j)
					vals = append(vals, w)
					fvals = append(fvals, float64(w))
				}
			}
		}
		Ai, _ := grb.MatrixFromTuples(n, n, rows, cols, vals, nil)
		gi, _ := New(&Ai, AdjacencyDirected)
		Af, _ := grb.MatrixFromTuples(n, n, rows, cols, fvals, nil)
		di, err := SSSPDeltaStepping(bg, gi, 0, int64(3))
		if err != nil {
			t.Fatal(err)
		}
		ref := refDijkstra(Af, 0)
		for i := 0; i < n; i++ {
			x, _ := di.ExtractElement(i)
			if math.IsInf(ref[i], 1) {
				if Reachable(x) {
					t.Fatalf("unreachable %d got %d", i, x)
				}
				continue
			}
			if x != int64(ref[i]) {
				t.Fatalf("int dist(%d) = %d, want %v", i, x, ref[i])
			}
		}
	}
}

func TestSSSPValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	g := mustGraph(t, randUndirected(rng, 5, 0.4, 5), AdjacencyUndirected)
	if _, err := SSSPDeltaStepping(bg, g, 0, -1); StatusOf(err) != StatusInvalidValue {
		t.Fatal("negative delta accepted")
	}
	if _, err := SSSPDeltaStepping(bg, g, 99, 1); StatusOf(err) != StatusInvalidValue {
		t.Fatal("bad source accepted")
	}
}

// ---------------------------------------------------------------------------
// Betweenness centrality (Algorithm 3)

func TestBetweennessCentralityMatchesBrandes(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 8; trial++ {
		n := 6 + rng.Intn(20)
		g := mustGraph(t, randUndirected(rng, n, 0.2, 1), AdjacencyUndirected)
		g.PropertyAT()
		ns := 1 + rng.Intn(4)
		sources := make([]int, 0, ns)
		seen := map[int]bool{}
		for len(sources) < ns {
			s := rng.Intn(n)
			if !seen[s] {
				seen[s] = true
				sources = append(sources, s)
			}
		}
		c, err := BetweennessCentralityAdvanced(bg, g, sources)
		if err != nil {
			t.Fatal(err)
		}
		want := refBrandes(adjacencyList(g.A), sources)
		c.Iterate(func(i int, x float64) {
			if math.Abs(x-want[i]) > 1e-6 {
				t.Fatalf("bc(%d) = %v want %v (sources %v)", i, x, want[i], sources)
			}
		})
	}
}

func TestBetweennessCentralityDirectedMatchesBrandes(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 6; trial++ {
		n := 8 + rng.Intn(25)
		g := mustGraph(t, randDigraph(rng, n, 0.15), AdjacencyDirected)
		g.PropertyAT()
		sources := []int{rng.Intn(n), rng.Intn(n)}
		c, err := BetweennessCentralityAdvanced(bg, g, sources)
		if err != nil {
			t.Fatal(err)
		}
		want := refBrandes(adjacencyList(g.A), sources)
		c.Iterate(func(i int, x float64) {
			if math.Abs(x-want[i]) > 1e-6 {
				t.Fatalf("directed bc(%d) = %v want %v", i, x, want[i])
			}
		})
	}
}

func TestBetweennessCentralityPathGraph(t *testing.T) {
	// Path 0-1-2-3: from source 0, vertices 1 and 2 lie on shortest paths.
	A, _ := grb.MatrixFromTuples(4, 4,
		[]int{0, 1, 1, 2, 2, 3}, []int{1, 0, 2, 1, 3, 2},
		[]float64{1, 1, 1, 1, 1, 1}, nil)
	g := mustGraph(t, A, AdjacencyUndirected)
	c, err := BetweennessCentrality(bg, g, []int{0})
	if err != nil && !IsWarning(err) {
		t.Fatal(err)
	}
	c1, _ := c.ExtractElement(1)
	c2, _ := c.ExtractElement(2)
	if c1 != 2 || c2 != 1 {
		t.Fatalf("path BC = %v %v, want 2 1", c1, c2)
	}
}

func TestBetweennessValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	g := mustGraph(t, randUndirected(rng, 5, 0.4, 1), AdjacencyUndirected)
	g.PropertyAT()
	if _, err := BetweennessCentralityAdvanced(bg, g, nil); StatusOf(err) != StatusInvalidValue {
		t.Fatal("empty batch accepted")
	}
	if _, err := BetweennessCentralityAdvanced(bg, g, []int{9}); StatusOf(err) != StatusInvalidValue {
		t.Fatal("bad source accepted")
	}
}
