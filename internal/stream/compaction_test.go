package stream

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"lagraph/internal/gap"
	"lagraph/internal/grb"
	"lagraph/internal/lagraph"
	"lagraph/internal/registry"
)

// coord is one matrix position.
type coord struct{ i, j int }

// edgeModel is the reference a batch sequence must produce: stored entry
// (i,j) → weight, both directions for undirected graphs.
type edgeModel map[coord]float64

// apply applies ops with Apply's semantics: sequential, a nil weight is 1,
// undirected ops mirrored, deleting an absent edge a no-op.
func (m edgeModel) apply(kind lagraph.Kind, ops []Op) {
	for _, op := range ops {
		w := 1.0
		if op.Weight != nil {
			w = *op.Weight
		}
		at := []coord{{op.Src, op.Dst}}
		if kind == lagraph.AdjacencyUndirected && op.Src != op.Dst {
			at = append(at, coord{op.Dst, op.Src})
		}
		for _, c := range at {
			if op.Op == OpUpsert {
				m[c] = w
			} else {
				delete(m, c)
			}
		}
	}
}

// sorted lists the model's entries in row-major order.
func (m edgeModel) sorted() []coord {
	keys := make([]coord, 0, len(m))
	for c := range m {
		keys = append(keys, c)
	}
	slices.SortFunc(keys, func(a, b coord) int {
		if a.i != b.i {
			return a.i - b.i
		}
		return a.j - b.j
	})
	return keys
}

// modelOf reads a finished matrix into a model.
func modelOf(A *grb.Matrix[float64]) edgeModel {
	rows, cols, vals := A.ExtractTuples()
	m := make(edgeModel, len(rows))
	for k := range rows {
		m[coord{rows[k], cols[k]}] = vals[k]
	}
	return m
}

// diffModels names the first difference between got and want.
func diffModels(got, want edgeModel) error {
	for _, c := range want.sorted() {
		if w, ok := got[c]; !ok || w != want[c] {
			return fmt.Errorf("entry (%d,%d): got %g (present %v), want %g", c.i, c.j, w, ok, want[c])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d entries, want %d", len(got), len(want))
	}
	return nil
}

// randomBatch draws 1–6 upserts and deletes over n vertices: about one
// op in eight is a self-loop, half the deletes target a live edge and the
// rest are mostly deletes of absent edges.
func randomBatch(rng *rand.Rand, n int, m edgeModel) []Op {
	ops := make([]Op, 1+rng.Intn(6))
	for k := range ops {
		src, dst := rng.Intn(n), rng.Intn(n)
		if rng.Intn(8) == 0 {
			dst = src
		}
		if rng.Intn(2) == 0 {
			op := Op{Op: OpUpsert, Src: src, Dst: dst}
			if rng.Intn(2) == 0 {
				w := float64(1 + rng.Intn(9))
				op.Weight = &w
			}
			ops[k] = op
			continue
		}
		if live := m.sorted(); len(live) > 0 && rng.Intn(2) == 0 {
			c := live[rng.Intn(len(live))]
			src, dst = c.i, c.j
		}
		ops[k] = del(src, dst)
	}
	return ops
}

// TestMutationDifferentialWithCompaction drives seeded random batches
// through Apply while the compactor runs between them (threshold 8, so
// it races the next batch), and after about one batch in eight also
// compacts synchronously. After every batch it checks the finalized
// snapshot, Result.Edges, the degrees its readers compute and the carried
// NDiag against a map model. Every 25th batch, BFS, PageRank, CC, SSSP,
// BC and (for the undirected kind) TC on the published version must agree
// with internal/gap on the model's weighted edges. At the end, every
// checkpoint plus the journaled batches above its version must reproduce
// the model too.
func TestMutationDifferentialWithCompaction(t *testing.T) {
	for _, kind := range []lagraph.Kind{lagraph.AdjacencyDirected, lagraph.AdjacencyUndirected} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", lagraph.KindName(kind), seed), func(t *testing.T) {
				mutationDifferential(t, kind, seed)
			})
		}
	}
}

func mutationDifferential(t *testing.T, kind lagraph.Kind, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	n := 16 + rng.Intn(49)
	var initial [][2]int
	for k := 0; k < 2*n; k++ {
		initial = append(initial, [2]int{rng.Intn(n), rng.Intn(n)})
	}
	want := make(edgeModel)
	for _, e := range initial {
		want.apply(kind, []Op{upsert(e[0], e[1])})
	}
	g := makeGraph(t, n, kind, initial)
	reg, e := setup(t, "d", g, Options{CompactThreshold: 8, CompactRatio: 1e9})
	j := &fakeJournal{}
	e.SetJournal(j)

	for b := 0; b < 200; b++ {
		ops := randomBatch(rng, n, want)
		want.apply(kind, ops)
		res, err := e.Apply("d", ops)
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		if res.Edges != len(want) {
			t.Fatalf("batch %d: Result.Edges = %d, model has %d", b, res.Edges, len(want))
		}
		if rng.Intn(8) == 0 {
			e.compactOne("d")
		}
		checkPublished(t, reg, res.Version, want)
		checkBookkeeping(t, e, want)
		if b%25 == 24 {
			checkKernels(t, reg, kind, want)
		}
	}

	// Close drains every scheduled compaction, checkpoints included.
	e.Close()
	appends, reverts, ckpts, _ := j.snapshot()
	if len(reverts) != 0 {
		t.Fatalf("unexpected reverts %v", reverts)
	}
	if len(ckpts) == 0 {
		t.Fatal("200 batches over threshold 8 and no checkpoint")
	}
	if !slices.IsSorted(ckpts) {
		t.Fatalf("checkpoint versions regress: %v", ckpts)
	}
	// Recovery reads the last checkpoint; every earlier one must have been
	// just as good a starting point.
	j.mu.Lock()
	defer j.mu.Unlock()
	for c, cv := range ckpts {
		recovered := modelOf(j.matrices[c])
		for k, v := range appends {
			if v > cv {
				recovered.apply(kind, j.ops[k])
			}
		}
		if err := diffModels(recovered, want); err != nil {
			t.Fatalf("checkpoint v%d + journal tail: %v", cv, err)
		}
	}
}

// checkPublished leases the current entry the way a job does and compares
// its content, carried NDiag, and the degrees EnsureProperties computes,
// with the model.
func checkPublished(t *testing.T, reg *registry.Registry, version uint64, want edgeModel) {
	t.Helper()
	l, err := reg.Acquire("d")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Release()
	if got := l.Entry().Version(); got != version {
		t.Fatalf("registry serves v%d, Apply published v%d", got, version)
	}
	l.Entry().EnsureFinalized()
	g := l.Graph()
	if err := diffModels(modelOf(g.A), want); err != nil {
		t.Fatalf("v%d snapshot: %v", version, err)
	}
	n := g.NumNodes()
	row, col, ndiag := modelDegrees(n, want)
	if got := g.CachedNDiag(); got != ndiag {
		t.Fatalf("v%d: NDiag %d, model %d", version, got, ndiag)
	}
	if err := l.Entry().EnsureProperties(registry.PropRowDegree, registry.PropColDegree); err != nil {
		t.Fatal(err)
	}
	for _, d := range []struct {
		name string
		vec  *grb.Vector[int64]
		want []int64
	}{{"row", g.CachedRowDegree(), row}, {"col", g.CachedColDegree(), col}} {
		got := make([]int64, n)
		d.vec.Iterate(func(i int, x int64) { got[i] = x })
		if !slices.Equal(got, d.want) {
			t.Fatalf("v%d: %s degrees %v, model %v", version, d.name, got, d.want)
		}
	}
}

// checkBookkeeping compares the engine's incremental counts with the model
// and checks the overlay is bounded by the delta log it indexes.
func checkBookkeeping(t *testing.T, e *Engine, want edgeModel) {
	t.Helper()
	e.mu.Lock()
	st := e.states["d"]
	e.mu.Unlock()
	st.mu.Lock()
	defer st.mu.Unlock()
	_, _, ndiag := modelDegrees(st.n, want)
	if st.edges != len(want) || st.ndiag != ndiag {
		t.Fatalf("bookkeeping edges=%d ndiag=%d; model edges=%d ndiag=%d", st.edges, st.ndiag, len(want), ndiag)
	}
	if len(st.overlay) > st.pending() {
		t.Fatalf("overlay holds %d positions over a delta log of %d", len(st.overlay), st.pending())
	}
}

// checkKernels leases the published version the way a job does and runs
// BFS (which reads RowDegree), PageRank, CC, SSSP from vertex 0, BC from
// four sources and, on an undirected graph, TC, each against internal/gap
// on the model's weighted edges, within the tolerances of the lagraph
// package's cross-validation tests.
func checkKernels(t *testing.T, reg *registry.Registry, kind lagraph.Kind, want edgeModel) {
	t.Helper()
	l, err := reg.Acquire("d")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Release()
	if err := l.Entry().EnsureProperties(registry.PropAT, registry.PropRowDegree); err != nil {
		t.Fatal(err)
	}
	ctx, g := context.Background(), l.Graph()
	n := g.NumNodes()
	var src, dst []int32
	var w []float64
	for _, c := range want.sorted() {
		src, dst, w = append(src, int32(c.i)), append(dst, int32(c.j)), append(w, want[c])
	}
	oracle := gap.Build(n, src, dst, w, kind == lagraph.AdjacencyDirected)

	_, level, err := lagraph.BreadthFirstSearchAdvanced(ctx, g, 0, false, true)
	if err != nil {
		t.Fatalf("bfs: %v", err)
	}
	for i, w := range gap.BFSLevels(oracle, 0) {
		got, err := level.ExtractElement(i)
		if reached := err == nil; reached != (w >= 0) || reached && got != w {
			t.Fatalf("bfs level(%d) = %d (reached %v), gap %d", i, got, reached, w)
		}
	}

	rank, iters, err := lagraph.PageRankGAP(ctx, g, 0.85, 1e-4, 20)
	if err != nil {
		t.Fatalf("pagerank: %v", err)
	}
	wantRank, wantIters := gap.PageRank(oracle, 0.85, 1e-4, 20)
	dist := 0.0
	rank.Iterate(func(i int, x float64) { dist += math.Abs(x - wantRank[i]) })
	if iters != wantIters || dist > 1e-9 || rank.NVals() != n {
		t.Fatalf("pagerank: %d iterations, %d ranks, L1 distance %g from gap's %d iterations", iters, rank.NVals(), dist, wantIters)
	}

	labels, err := lagraph.ConnectedComponents(ctx, g)
	if err != nil && !lagraph.IsWarning(err) {
		t.Fatalf("cc: %v", err)
	}
	comp := gap.ConnectedComponents(oracle)
	to, from := map[int64]int32{}, map[int32]int64{}
	labels.Iterate(func(i int, x int64) {
		if c, ok := to[x]; ok && c != comp[i] {
			t.Fatalf("cc: label %d spans gap components %d and %d", x, c, comp[i])
		}
		if y, ok := from[comp[i]]; ok && y != x {
			t.Fatalf("cc: gap component %d carries labels %d and %d", comp[i], y, x)
		}
		to[x], from[comp[i]] = comp[i], x
	})
	if labels.NVals() != n {
		t.Fatalf("cc: %d labels for %d vertices", labels.NVals(), n)
	}

	const delta = 4.0
	paths, err := lagraph.SSSPDeltaStepping(ctx, g, 0, delta)
	if err != nil {
		t.Fatalf("sssp: %v", err)
	}
	wantDist := gap.SSSPDelta(oracle, 0, delta)
	paths.Iterate(func(i int, x float64) {
		if w := float64(wantDist[i]); math.IsInf(w, 1) != math.IsInf(x, 1) || !math.IsInf(w, 1) && math.Abs(x-w) > 1e-3 {
			t.Fatalf("sssp: dist(%d) = %v, gap %v", i, x, w)
		}
	})

	bc, err := lagraph.BetweennessCentralityAdvanced(ctx, g, []int{0, 3, 5, 7})
	if err != nil {
		t.Fatalf("bc: %v", err)
	}
	wantBC := gap.BC(oracle, []int32{0, 3, 5, 7})
	bc.Iterate(func(i int, x float64) {
		if math.Abs(x-wantBC[i]) > 1e-6*(1+math.Abs(wantBC[i])) {
			t.Fatalf("bc(%d) = %v, gap %v", i, x, wantBC[i])
		}
	})

	if kind == lagraph.AdjacencyUndirected {
		got, err := lagraph.TriangleCount(ctx, g)
		if err != nil && !lagraph.IsWarning(err) {
			t.Fatalf("tc: %v", err)
		}
		if w := gap.TriangleCount(oracle); got != w {
			t.Fatalf("tc: %d triangles, gap %d", got, w)
		}
	}
}

func modelDegrees(n int, m edgeModel) (row, col []int64, ndiag int64) {
	row, col = make([]int64, n), make([]int64, n)
	for c := range m {
		row[c.i]++
		col[c.j]++
		if c.i == c.j {
			ndiag++
		}
	}
	return row, col, ndiag
}

// TestCompactionReusesFinalizedVersion: compacting a version a reader has
// already finalized adopts that assembly instead of merging the delta log
// again, so it allocates nothing that grows with the graph.
func TestCompactionReusesFinalizedVersion(t *testing.T) {
	const n, perVertex = 1 << 12, 8
	edges := make([][2]int, 0, n*perVertex)
	for i := 0; i < n; i++ {
		for k := 0; k < perVertex; k++ {
			edges = append(edges, [2]int{i, (i + 1 + 509*k) % n})
		}
	}
	g := makeGraph(t, n, lagraph.AdjacencyDirected, edges)
	reg, e := setup(t, "big", g, Options{CompactThreshold: 1 << 30, CompactRatio: 1e9})
	res, err := e.Apply("big", []Op{upsert(0, 0), upsert(1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	readEdges(t, reg, "big") // finalize v2 through a lease, as the first reader does

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e.compactOne("big")
	runtime.ReadMemStats(&after)

	perEntry := float64(after.TotalAlloc-before.TotalAlloc) / float64(res.Edges)
	t.Logf("compaction allocated %d B over %d stored entries", after.TotalAlloc-before.TotalAlloc, res.Edges)
	if perEntry >= 1 {
		t.Fatalf("compaction allocated %d B = %.1f B per stored entry, want < 1",
			after.TotalAlloc-before.TotalAlloc, perEntry)
	}
	info, _ := reg.Info("big")
	if info.Version != res.Version || info.PendingDeltaOps != 0 {
		t.Fatalf("after compaction v%d with %d pending ops, want v%d with 0", info.Version, info.PendingDeltaOps, res.Version)
	}
	if got := e.StatsSnapshot().Compactions; got != 1 {
		t.Fatalf("compactions = %d, want 1", got)
	}
}

// blockingJournal accepts every append and holds each Checkpoint until
// release, signalling entered as the first one arrives: a hung checkpoint
// write, as a stalled disk would produce.
type blockingJournal struct {
	entered  chan struct{}
	released chan struct{}
	once     sync.Once
}

func newBlockingJournal() *blockingJournal {
	return &blockingJournal{entered: make(chan struct{}, 1), released: make(chan struct{})}
}

func (j *blockingJournal) release() { j.once.Do(func() { close(j.released) }) }

func (j *blockingJournal) AppendBatch(string, uint64, []Op) error { return nil }
func (j *blockingJournal) RevertBatch(string, uint64)             {}
func (j *blockingJournal) Checkpoint(string, lagraph.Kind, *grb.Matrix[float64], uint64) error {
	select {
	case j.entered <- struct{}{}:
	default:
	}
	<-j.released
	return nil
}

// TestCompactionScheduledForEveryGraph: while one compaction's checkpoint
// hangs, every other graph whose delta log crosses the threshold still
// gets a compaction of its own — no queue bound leaves a graph waiting
// for a next batch that may never come — and each of them runs once the
// checkpoint returns.
func TestCompactionScheduledForEveryGraph(t *testing.T) {
	const graphs = 80
	reg := registry.New(0)
	for k := range graphs {
		if _, err := reg.Add(fmt.Sprintf("g%d", k), makeGraph(t, 4, lagraph.AdjacencyDirected, [][2]int{{0, 1}})); err != nil {
			t.Fatal(err)
		}
	}
	e := NewEngine(reg, Options{CompactThreshold: 1})
	t.Cleanup(e.Close)
	j := newBlockingJournal()
	t.Cleanup(j.release) // cleanups run last-in first-out: before Close
	e.SetJournal(j)

	for k := range graphs {
		res, err := e.Apply(fmt.Sprintf("g%d", k), []Op{upsert(1, 2)})
		if err != nil {
			t.Fatal(err)
		}
		if !res.CompactionScheduled {
			t.Fatalf("graph %d of %d: compaction not scheduled", k, graphs)
		}
	}
	select {
	case <-j.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("no compaction reached its checkpoint")
	}
	j.release()
	e.Close() // waits for every scheduled compaction
	if got := e.StatsSnapshot().Compactions; got != graphs {
		t.Fatalf("compactions = %d, want %d", got, graphs)
	}
	for k := range graphs {
		if info, _ := reg.Info(fmt.Sprintf("g%d", k)); info.PendingDeltaOps != 0 {
			t.Fatalf("graph %d still has %d pending ops", k, info.PendingDeltaOps)
		}
	}
}

// TestCompactorLiveReportsHungCheckpoint: the compactor probe needs no
// idle heartbeat — an idle engine stays live however long it waits — and
// fails while one compaction holds the compaction lock past staleAfter,
// recovering once that checkpoint returns.
func TestCompactorLiveReportsHungCheckpoint(t *testing.T) {
	const staleAfter = 10 * time.Millisecond
	_, e := setup(t, "g", makeGraph(t, 4, lagraph.AdjacencyDirected, [][2]int{{0, 1}}), Options{CompactThreshold: 1})
	j := newBlockingJournal()
	t.Cleanup(j.release)
	e.SetJournal(j)

	time.Sleep(2 * staleAfter)
	if ok, detail := e.CompactorLive(staleAfter); !ok {
		t.Fatalf("idle engine not live: %s", detail)
	}
	if res, err := e.Apply("g", []Op{upsert(1, 2)}); err != nil || !res.CompactionScheduled {
		t.Fatalf("apply: %+v, %v", res, err)
	}
	select {
	case <-j.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("compaction never reached its checkpoint")
	}
	time.Sleep(2 * staleAfter)
	if ok, detail := e.CompactorLive(staleAfter); ok || detail == "" {
		t.Fatalf("hung checkpoint: live=%v detail=%q, want not live with a detail", ok, detail)
	}

	j.release()
	deadline := time.Now().Add(5 * time.Second)
	for ok, detail := e.CompactorLive(staleAfter); !ok; ok, detail = e.CompactorLive(staleAfter) {
		if time.Now().After(deadline) {
			t.Fatalf("released checkpoint: still not live (%s)", detail)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(2 * staleAfter)
	if ok, detail := e.CompactorLive(staleAfter); !ok {
		t.Fatalf("idle again after the checkpoint: not live (%s)", detail)
	}
	e.Close()
	if ok, detail := e.CompactorLive(staleAfter); ok || detail == "" {
		t.Fatalf("closed engine: live=%v detail=%q", ok, detail)
	}
}
