package registry

import (
	"errors"
	"testing"
)

func TestSwapBumpsVersionAndIsolatesLeases(t *testing.T) {
	r := New(0)
	g1 := loadGraph(t, "g", 6, true)
	e1, err := r.Add("g", g1)
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	v1 := e1.Version()

	// A job in flight holds a lease on the first incarnation.
	lease, err := r.Acquire("g")
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}

	g2, err := g1.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	// One pending operation: Swap reads it off the matrix and charges it.
	if err := g2.A.SetElement(1, 0, 0); err != nil {
		t.Fatal(err)
	}
	e2, err := r.Swap("g", g2, SwapStats{Nodes: g1.NumNodes(), Edges: g1.NumEdges() + 1})
	if err != nil {
		t.Fatalf("Swap: %v", err)
	}
	if e2.Version() != v1+1 {
		t.Fatalf("swapped version = %d, want %d", e2.Version(), v1+1)
	}
	if e2.PendingDeltaOps() != 1 {
		t.Fatalf("pending ops = %d, want 1", e2.PendingDeltaOps())
	}
	if want := EstimateBytesFor(g1.NumNodes(), g1.NumEdges()+1, true) + pendingOpBytes; e2.Bytes() != want {
		t.Fatalf("bytes = %d, want %d (the estimate plus one pending operation)", e2.Bytes(), want)
	}

	// The old lease still reads the old graph; a new acquire gets the new.
	if lease.Graph() != g1 {
		t.Fatal("old lease switched graphs")
	}
	l2, err := r.Acquire("g")
	if err != nil {
		t.Fatalf("Acquire after swap: %v", err)
	}
	if l2.Graph() != g2 || l2.Entry().Version() != v1+1 {
		t.Fatal("new acquire did not see the swapped snapshot")
	}
	lease.Release()
	l2.Release()

	if got := scrape(t, r)["registry_swaps_total"]; got != 1 {
		t.Fatalf("swaps counter = %v, want 1", got)
	}
}

func TestSwapKeepVersion(t *testing.T) {
	r := New(0)
	g1 := loadGraph(t, "g", 6, false)
	e1, err := r.Add("g", g1)
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	g2, err := g1.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	e2, err := r.Swap("g", g2, SwapStats{
		Nodes: g1.NumNodes(), Edges: g1.NumEdges(), KeepVersion: true,
	})
	if err != nil {
		t.Fatalf("Swap: %v", err)
	}
	if e2.Version() != e1.Version() {
		t.Fatalf("keep-version swap changed version %d -> %d", e1.Version(), e2.Version())
	}
	// A later real swap still bumps past it.
	g3, err := g2.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	e3, err := r.Swap("g", g3, SwapStats{Nodes: g2.NumNodes(), Edges: g2.NumEdges()})
	if err != nil {
		t.Fatalf("Swap: %v", err)
	}
	if e3.Version() != e1.Version()+1 {
		t.Fatalf("post-compaction version = %d, want %d", e3.Version(), e1.Version()+1)
	}
}

func TestSwapMissingAndBudget(t *testing.T) {
	r := New(0)
	g := loadGraph(t, "g", 5, false)
	if _, err := r.Swap("missing", g, SwapStats{Nodes: 1, Edges: 1}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("swap missing: %v, want ErrNotFound", err)
	}

	// A budgeted registry rejects a swap that cannot fit, leaving the old
	// entry resident.
	small := New(EstimateBytes(g) + 64)
	if _, err := small.Add("g", g); err != nil {
		t.Fatalf("Add: %v", err)
	}
	snap, err := g.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	_, err = small.Swap("g", snap, SwapStats{Nodes: g.NumNodes(), Edges: 10 * g.NumEdges()})
	if !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("oversize swap: %v, want ErrNoCapacity", err)
	}
	l, err := small.Acquire("g")
	if err != nil {
		t.Fatalf("old entry gone after failed swap: %v", err)
	}
	if l.Graph() != g {
		t.Fatal("failed swap replaced the graph anyway")
	}
	l.Release()

	// Accounting: a successful swap replaces the old footprint.
	want := EstimateBytesFor(g.NumNodes(), g.NumEdges()+2, false)
	if _, err := small.Swap("g", snap, SwapStats{Nodes: g.NumNodes(), Edges: g.NumEdges() + 2}); err != nil {
		t.Fatalf("fitting swap: %v", err)
	}
	if got := int64(scrape(t, small)["registry_resident_bytes"]); got != want {
		t.Fatalf("bytes after swap = %d, want %d", got, want)
	}
}

func TestFailedSwapEvictsNothing(t *testing.T) {
	a := loadGraph(t, "a", 6, false)
	b := loadGraph(t, "b", 6, false)
	r := New(EstimateBytes(a) + EstimateBytes(b) + 64)
	if _, err := r.Add("a", a); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Add("b", b); err != nil {
		t.Fatal(err)
	}
	// Pin "a" so an eviction pass could only ever take "b".
	la, err := r.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	defer la.Release()

	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// The swap can never fit (its pending operations alone outweigh the
	// whole budget): it must fail without evicting the innocent, unleased "b".
	for k := int64(0); k*pendingOpBytes <= EstimateBytes(a)+EstimateBytes(b); k++ {
		if err := snap.A.RemoveElement(0, int(k)%a.NumNodes()); err != nil {
			t.Fatal(err)
		}
	}
	_, err = r.Swap("a", snap, SwapStats{Nodes: a.NumNodes(), Edges: a.NumEdges()})
	if !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("oversize swap: %v, want ErrNoCapacity", err)
	}
	if _, ok := r.Info("b"); !ok {
		t.Fatal("failed swap evicted an unrelated graph")
	}
	if _, ok := r.Info("a"); !ok {
		t.Fatal("failed swap lost the swapped graph")
	}
	if got := scrape(t, r)["registry_evictions_total"]; got != 0 {
		t.Fatalf("evictions = %v, want 0", got)
	}
}
