package stream

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"lagraph/internal/grb"
	"lagraph/internal/lagraph"
	"lagraph/internal/registry"
)

// makeGraph builds a graph from explicit edges, weights all 1.
func makeGraph(t *testing.T, n int, kind lagraph.Kind, edges [][2]int) *lagraph.Graph[float64] {
	t.Helper()
	var rows, cols []int
	var vals []float64
	for _, e := range edges {
		rows = append(rows, e[0])
		cols = append(cols, e[1])
		vals = append(vals, 1)
		if kind == lagraph.AdjacencyUndirected && e[0] != e[1] {
			rows = append(rows, e[1])
			cols = append(cols, e[0])
			vals = append(vals, 1)
		}
	}
	A, err := grb.MatrixFromTuples(n, n, rows, cols, vals, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := lagraph.New(&A, kind)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// setup registers a graph and returns the registry + engine.
func setup(t *testing.T, name string, g *lagraph.Graph[float64], opts Options) (*registry.Registry, *Engine) {
	t.Helper()
	reg := registry.New(0)
	if _, err := reg.Add(name, g); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(reg, opts)
	t.Cleanup(e.Close)
	return reg, e
}

// readEdges leases the named graph the way a job does — finalize first —
// and returns (edge count, version, graph).
func readEdges(t *testing.T, reg *registry.Registry, name string) (int, uint64, *lagraph.Graph[float64]) {
	t.Helper()
	l, err := reg.Acquire(name)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Release()
	l.Entry().EnsureFinalized()
	return l.Graph().NumEdges(), l.Entry().Version(), l.Graph()
}

func upsert(src, dst int) Op { return Op{Op: OpUpsert, Src: src, Dst: dst} }
func del(src, dst int) Op    { return Op{Op: OpDelete, Src: src, Dst: dst} }

func TestApplySnapshotIsolation(t *testing.T) {
	// Directed path 0→1→2, vertex 3 isolated.
	g0 := makeGraph(t, 4, lagraph.AdjacencyDirected, [][2]int{{0, 1}, {1, 2}})
	reg, e := setup(t, "g", g0, Options{})

	// An in-flight job holds a lease on v1.
	oldLease, err := reg.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	defer oldLease.Release()
	v1 := oldLease.Entry().Version()

	res, err := e.Apply("g", []Op{upsert(2, 3), del(0, 1)})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if res.Version != v1+1 {
		t.Fatalf("version = %d, want %d", res.Version, v1+1)
	}
	if res.EdgesAdded != 1 || res.EdgesRemoved != 1 || res.Edges != 2 {
		t.Fatalf("result = %+v", res)
	}
	if res.PendingOps != 2 {
		t.Fatalf("pending ops = %d, want 2", res.PendingOps)
	}

	// The old lease still reads the pre-mutation graph.
	oldLease.Entry().EnsureFinalized()
	og := oldLease.Graph()
	if og.NumEdges() != 2 {
		t.Fatalf("old snapshot edges = %d, want 2", og.NumEdges())
	}
	if _, err := og.A.ExtractElement(0, 1); err != nil {
		t.Fatal("old snapshot lost edge (0,1)")
	}
	if _, err := og.A.ExtractElement(2, 3); err == nil {
		t.Fatal("old snapshot gained edge (2,3)")
	}

	// A new acquisition sees the mutated graph at the new version.
	n, v, ng := readEdges(t, reg, "g")
	if v != v1+1 || n != 2 {
		t.Fatalf("new snapshot: %d edges at v%d", n, v)
	}
	if _, err := ng.A.ExtractElement(2, 3); err != nil {
		t.Fatal("new snapshot missing upserted edge")
	}
	if _, err := ng.A.ExtractElement(0, 1); err == nil {
		t.Fatal("new snapshot kept deleted edge")
	}

	// BFS confirms semantic visibility: from 0 the old graph reaches
	// {0,1,2}, the new graph (0→1 deleted) reaches only {0}.
	parent, _, err := lagraph.BreadthFirstSearch(context.Background(), og, 0, true, false)
	if err != nil && !lagraph.IsWarning(err) {
		t.Fatal(err)
	}
	if parent.NVals() != 3 {
		t.Fatalf("old BFS reached %d, want 3", parent.NVals())
	}
	parent, _, err = lagraph.BreadthFirstSearch(context.Background(), ng, 0, true, false)
	if err != nil && !lagraph.IsWarning(err) {
		t.Fatal(err)
	}
	if parent.NVals() != 1 {
		t.Fatalf("new BFS reached %d, want 1", parent.NVals())
	}
}

func TestApplyUndirectedMirrorsOps(t *testing.T) {
	g0 := makeGraph(t, 4, lagraph.AdjacencyUndirected, [][2]int{{0, 1}, {1, 2}})
	reg, e := setup(t, "u", g0, Options{})

	res, err := e.Apply("u", []Op{upsert(2, 3), del(0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	// Stored entries: both directions counted.
	if res.Edges != 4 {
		t.Fatalf("edges = %d, want 4", res.Edges)
	}
	_, _, g := readEdges(t, reg, "u")
	for _, want := range [][2]int{{2, 3}, {3, 2}, {1, 2}, {2, 1}} {
		if _, err := g.A.ExtractElement(want[0], want[1]); err != nil {
			t.Fatalf("missing mirrored edge %v", want)
		}
	}
	for _, gone := range [][2]int{{0, 1}, {1, 0}} {
		if _, err := g.A.ExtractElement(gone[0], gone[1]); err == nil {
			t.Fatalf("deleted edge %v still present", gone)
		}
	}
	// The mutated undirected graph must still pass the symmetry check.
	if err := g.CheckGraph(); err != nil {
		t.Fatalf("CheckGraph after mirrored mutation: %v", err)
	}
}

// TestIncrementalDegreesAndNDiag: the self-loop count is carried across
// a batch, while degrees are not — even when the previous version had
// them — and EnsureProperties recomputes the right ones.
func TestIncrementalDegreesAndNDiag(t *testing.T) {
	g0 := makeGraph(t, 5, lagraph.AdjacencyDirected, [][2]int{{0, 1}, {0, 2}, {1, 1}, {3, 0}})
	reg, e := setup(t, "d", g0, Options{})
	ensure := func(props ...registry.Property) {
		t.Helper()
		l, err := reg.Acquire("d")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Release()
		if err := l.Entry().EnsureProperties(props...); err != nil {
			t.Fatal(err)
		}
	}
	ensure(registry.PropRowDegree, registry.PropColDegree)

	res, err := e.Apply("d", []Op{
		upsert(0, 3),                   // out-degree 0: 2→3, in-degree 3: 0→1
		del(1, 1),                      // self-loop removed: ndiag 1→0
		upsert(4, 4),                   // self-loop added: ndiag 0→1
		{Op: OpUpsert, Src: 0, Dst: 1}, // update in place: degrees unchanged
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.EdgesAdded != 2 || res.EdgesRemoved != 1 || res.Edges != 5 {
		t.Fatalf("result = %+v", res)
	}

	_, _, g := readEdges(t, reg, "d")
	if g.CachedNDiag() != 1 {
		t.Fatalf("NDiag = %d, want 1", g.CachedNDiag())
	}
	if g.CachedRowDegree() != nil || g.CachedColDegree() != nil {
		t.Fatal("the published snapshot carries a degree vector")
	}
	ensure(registry.PropRowDegree, registry.PropColDegree)
	rd := g.CachedRowDegree()
	wantRow := map[int]int64{0: 3, 3: 1, 4: 1}
	for i, want := range wantRow {
		got, err := rd.ExtractElement(i)
		if err != nil || got != want {
			t.Fatalf("rowdeg[%d] = %d (%v), want %d", i, got, err, want)
		}
	}
	if _, err := rd.ExtractElement(1); err == nil {
		t.Fatal("rowdeg[1] should be absent (degree 0 after self-loop delete)")
	}
	if got, _ := g.CachedColDegree().ExtractElement(3); got != 1 {
		t.Fatalf("coldeg[3] = %d, want 1", got)
	}

	// The mutated version's degrees equal a freshly loaded graph's.
	fresh := makeGraph(t, 5, lagraph.AdjacencyDirected,
		[][2]int{{0, 1}, {0, 2}, {0, 3}, {3, 0}, {4, 4}})
	if err := fresh.PropertyRowDegree(); err != nil && !lagraph.IsWarning(err) {
		t.Fatal(err)
	}
	if rd.NVals() != fresh.CachedRowDegree().NVals() {
		t.Fatalf("rowdeg has %d entries, recompute %d", rd.NVals(), fresh.CachedRowDegree().NVals())
	}
	fresh.CachedRowDegree().Iterate(func(i int, d int64) {
		got, err := rd.ExtractElement(i)
		if err != nil || got != d {
			t.Fatalf("mutated rowdeg[%d] = %d (%v), fresh graph says %d", i, got, err, d)
		}
	})
}

// TestApplyAllocatesByBatch pins what a batch costs on a graph whose
// degrees are cached: publishing a version allocates for its operations,
// not for its vertices nor for the delta log under it, so a 4-op batch on
// 2^16 vertices allocates within 2× of the same batch on 2^10, and one on
// a log of about 4000 pending operations within 2× of one on a log of 4.
func TestApplyAllocatesByBatch(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	applyBytes := func(n, logLen int) uint64 {
		ring := make([][2]int, n)
		for i := range ring {
			ring[i] = [2]int{i, (i + 1) % n}
		}
		reg, e := setup(t, "r", makeGraph(t, n, lagraph.AdjacencyDirected, ring),
			Options{CompactThreshold: 1 << 30, CompactRatio: 1e9})
		// The preload resets the engine's state from the graph and leaves
		// logLen operations pending.
		preload := make([]Op, logLen)
		for i := range preload {
			preload[i] = upsert(i, (i+2)%n)
		}
		if _, err := e.Apply("r", preload); err != nil {
			t.Fatal(err)
		}
		best := uint64(math.MaxUint64)
		for k := 0; k < 4; k++ {
			l, err := reg.Acquire("r")
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Entry().EnsureProperties(registry.PropRowDegree, registry.PropColDegree); err != nil {
				t.Fatal(err)
			}
			l.Release()
			ops := []Op{upsert(k, 2*k+5), upsert(3*k+7, k), del(k, k+1), upsert(9, 9+k)}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := e.Apply("r", ops); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	small, large := applyBytes(1<<10, 4), applyBytes(1<<16, 4)
	t.Logf("a 4-op batch allocated %d B on 2^10 vertices, %d B on 2^16", small, large)
	if large > 2*small {
		t.Fatalf("a 4-op batch allocated %d B on 2^16 vertices, more than 2× the %d B on 2^10", large, small)
	}
	short, long := applyBytes(1<<12, 4), applyBytes(1<<12, 4000)
	t.Logf("a 4-op batch allocated %d B over 4 pending operations, %d B over 4000", short, long)
	if long > 2*short {
		t.Fatalf("a 4-op batch allocated %d B over 4000 pending operations, more than 2× the %d B over 4", long, short)
	}
}

func TestCompactionMergesLogAndKeepsVersion(t *testing.T) {
	g0 := makeGraph(t, 8, lagraph.AdjacencyDirected, [][2]int{{0, 1}})
	reg, e := setup(t, "c", g0, Options{CompactThreshold: 4, CompactRatio: 1000})

	var version uint64
	for k := 0; k < 5; k++ {
		res, err := e.Apply("c", []Op{upsert(k%8, (k+2)%8)})
		if err != nil {
			t.Fatal(err)
		}
		version = res.Version
	}

	// The compactor runs in the background; wait for the pending delta to
	// hit zero on the published entry.
	deadline := time.Now().Add(5 * time.Second)
	for {
		info, ok := reg.Info("c")
		if !ok {
			t.Fatal("graph vanished")
		}
		if info.PendingDeltaOps == 0 {
			if info.Version != version {
				t.Fatalf("compaction changed version %d -> %d", version, info.Version)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("compaction never ran (pending %d)", info.PendingDeltaOps)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := e.StatsSnapshot().Compactions; got < 1 {
		t.Fatalf("compactions = %d, want >= 1", got)
	}

	// Content survived the merge, and the next mutation is the only pending
	// operation over the compacted base.
	n, _, g := readEdges(t, reg, "c")
	if _, err := g.A.ExtractElement(0, 2); err != nil {
		t.Fatal("compacted graph lost an upserted edge")
	}
	res, err := e.Apply("c", []Op{upsert(7, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if res.PendingOps != 1 {
		t.Fatalf("pending after compaction+1 = %d, want 1", res.PendingOps)
	}
	if res.Edges != n+1 {
		t.Fatalf("edges = %d, want %d", res.Edges, n+1)
	}
}

func TestApplyValidationIsAtomic(t *testing.T) {
	g0 := makeGraph(t, 4, lagraph.AdjacencyDirected, [][2]int{{0, 1}})
	reg, e := setup(t, "v", g0, Options{MaxBatchOps: 4})

	cases := []struct {
		ops  []Op
		want error
	}{
		{nil, ErrBadBatch},
		{[]Op{{Op: "frobnicate", Src: 0, Dst: 1}}, ErrBadBatch},
		{[]Op{upsert(0, 99)}, ErrBadBatch},
		{[]Op{upsert(-1, 0)}, ErrBadBatch},
		{[]Op{upsert(0, 1), upsert(1, 2), upsert(2, 3), del(0, 1), upsert(3, 3)}, ErrBatchTooLarge},
		// Valid first op, invalid second: nothing applies.
		{[]Op{upsert(1, 2), del(4, 0)}, ErrBadBatch},
	}
	for i, tc := range cases {
		if _, err := e.Apply("v", tc.ops); !errors.Is(err, tc.want) {
			t.Fatalf("case %d: err = %v, want %v", i, err, tc.want)
		}
	}
	if _, err := e.Apply("missing", []Op{upsert(0, 1)}); !errors.Is(err, registry.ErrNotFound) {
		t.Fatalf("missing graph: %v", err)
	}

	// Rejected batches left the graph untouched at its original version.
	n, v, g := readEdges(t, reg, "v")
	if n != 1 || v != 1 {
		t.Fatalf("graph changed by rejected batches: %d edges at v%d", n, v)
	}
	if _, err := g.A.ExtractElement(1, 2); err == nil {
		t.Fatal("partially applied batch leaked an edge")
	}
	if got := e.StatsSnapshot().RejectedBatches; got != 7 {
		t.Fatalf("rejected = %d, want 7", got)
	}
}

func TestApplyAfterExternalReplaceResyncs(t *testing.T) {
	g0 := makeGraph(t, 4, lagraph.AdjacencyDirected, [][2]int{{0, 1}})
	reg, e := setup(t, "r", g0, Options{})

	if _, err := e.Apply("r", []Op{upsert(1, 2)}); err != nil {
		t.Fatal(err)
	}

	// Replace the graph wholesale (delete + re-upload, larger this time).
	if err := reg.Remove("r"); err != nil {
		t.Fatal(err)
	}
	g1 := makeGraph(t, 10, lagraph.AdjacencyDirected, [][2]int{{5, 6}})
	if _, err := reg.Add("r", g1); err != nil {
		t.Fatal(err)
	}

	// Mutating a vertex only the new incarnation has must work: the state
	// resynced off the fresh upload.
	res, err := e.Apply("r", []Op{upsert(8, 9)})
	if err != nil {
		t.Fatalf("Apply after replace: %v", err)
	}
	if res.Edges != 2 {
		t.Fatalf("edges = %d, want 2", res.Edges)
	}
	_, _, g := readEdges(t, reg, "r")
	if _, err := g.A.ExtractElement(8, 9); err != nil {
		t.Fatal("resynced snapshot missing new edge")
	}
	if _, err := g.A.ExtractElement(1, 2); err == nil {
		t.Fatal("stale pre-replace mutation leaked into the new incarnation")
	}
}

// TestConcurrentMutateWhileQuerying hammers one graph with mutation
// batches, lease-and-read queries, and background compactions at once.
// Run under -race, this is the subsystem's isolation proof: every reader
// sees a consistent finished snapshot no matter how the mutator and
// compactor interleave.
func TestConcurrentMutateWhileQuerying(t *testing.T) {
	g0 := makeGraph(t, 16, lagraph.AdjacencyUndirected, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	reg, e := setup(t, "h", g0, Options{CompactThreshold: 8})

	const (
		mutators = 2
		readers  = 4
		rounds   = 40
	)
	var wg sync.WaitGroup
	errc := make(chan error, mutators+readers)

	for m := 0; m < mutators; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				src := (m*7 + r) % 16
				dst := (m*3 + r*5 + 1) % 16
				ops := []Op{upsert(src, dst)}
				if r%3 == 0 {
					ops = append(ops, del((src+1)%16, (dst+2)%16))
				}
				if _, err := e.Apply("h", ops); err != nil {
					errc <- fmt.Errorf("mutator %d round %d: %w", m, r, err)
					return
				}
			}
		}(m)
	}
	for q := 0; q < readers; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				l, err := reg.Acquire("h")
				if err != nil {
					errc <- err
					return
				}
				l.Entry().EnsureFinalized()
				g := l.Graph()
				if g.NumEdges() < 0 {
					errc <- fmt.Errorf("negative edge count")
				}
				parent, _, err := lagraph.BreadthFirstSearch(context.Background(), g, q%16, true, false)
				if err != nil && !lagraph.IsWarning(err) {
					errc <- fmt.Errorf("reader %d round %d: %w", q, r, err)
					l.Release()
					return
				}
				if parent.NVals() < 1 {
					errc <- fmt.Errorf("BFS reached nothing")
				}
				l.Release()
			}
		}(q)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// The final published snapshot agrees with the engine's bookkeeping.
	n, _, g := readEdges(t, reg, "h")
	if err := g.CheckGraph(); err != nil {
		t.Fatalf("final CheckGraph: %v", err)
	}
	st := e.StatsSnapshot()
	if st.Batches != mutators*rounds {
		t.Fatalf("batches = %d, want %d", st.Batches, mutators*rounds)
	}
	if n == 0 {
		t.Fatal("graph ended empty")
	}
}

// TestStateLifecycle covers the delta-state bookkeeping around the
// registry: mutations of unknown names must not leak state, and deleting
// or LRU-evicting a graph must drop its delta state (which pins the base
// CSR) through the registry's removal listener.
func TestStateLifecycle(t *testing.T) {
	g0 := makeGraph(t, 8, lagraph.AdjacencyDirected, [][2]int{{0, 1}})
	budget := registry.EstimateBytes(g0) * 2
	reg := registry.New(budget)
	if _, err := reg.Add("a", g0); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(reg, Options{})
	t.Cleanup(e.Close)

	// Unknown names never accumulate state.
	for i := 0; i < 5; i++ {
		if _, err := e.Apply(fmt.Sprintf("ghost-%d", i), []Op{upsert(0, 1)}); !errors.Is(err, registry.ErrNotFound) {
			t.Fatalf("ghost apply: %v", err)
		}
	}
	if got := e.StatsSnapshot().GraphsTracked; got != 0 {
		t.Fatalf("tracked = %d after unknown-name mutations, want 0", got)
	}

	if _, err := e.Apply("a", []Op{upsert(1, 2)}); err != nil {
		t.Fatal(err)
	}
	if got := e.StatsSnapshot().GraphsTracked; got != 1 {
		t.Fatalf("tracked = %d, want 1", got)
	}

	// Explicit deletion drops the state via the removal listener.
	if err := reg.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if got := e.StatsSnapshot().GraphsTracked; got != 0 {
		t.Fatalf("tracked = %d after Remove, want 0", got)
	}

	// LRU eviction drops it too: refill, then crowd the budget out.
	g1 := makeGraph(t, 8, lagraph.AdjacencyDirected, [][2]int{{0, 1}})
	if _, err := reg.Add("b", g1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Apply("b", []Op{upsert(2, 3)}); err != nil {
		t.Fatal(err)
	}
	// Same shape as g0: fits alone, but alongside the mutated "b" (whose
	// footprint includes its delta log) it exceeds the budget.
	crowd := makeGraph(t, 8, lagraph.AdjacencyDirected, [][2]int{{0, 1}})
	if _, err := reg.Add("crowd", crowd); err != nil {
		t.Fatalf("Add that should evict: %v", err)
	}
	if _, ok := reg.Info("b"); ok {
		t.Skip("budget did not force eviction; sizes shifted")
	}
	if got := e.StatsSnapshot().GraphsTracked; got != 0 {
		t.Fatalf("tracked = %d after eviction, want 0", got)
	}
}

// TestNoOpBatchKeepsVersion: a batch whose every operation is a delete of
// an absent edge changes nothing, so it must not bump the version — a
// bump would wipe the result cache for a content-identical graph.
func TestNoOpBatchKeepsVersion(t *testing.T) {
	g0 := makeGraph(t, 4, lagraph.AdjacencyDirected, [][2]int{{0, 1}})
	reg, e := setup(t, "n", g0, Options{})

	res, err := e.Apply("n", []Op{del(2, 3), del(3, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 1 || res.EdgesRemoved != 0 || res.Edges != 1 {
		t.Fatalf("no-op batch result: %+v", res)
	}
	if info, _ := reg.Info("n"); info.Version != 1 {
		t.Fatalf("no-op batch bumped version to %d", info.Version)
	}
	// A batch with any real effect still bumps.
	res, err = e.Apply("n", []Op{del(0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 2 || res.EdgesRemoved != 1 {
		t.Fatalf("real batch result: %+v", res)
	}
}
