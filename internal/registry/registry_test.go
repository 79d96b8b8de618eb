package registry

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"lagraph/internal/gen"
	"lagraph/internal/grb"
	"lagraph/internal/lagraph"
	"lagraph/internal/obs"
)

// loadGraph builds a small synthetic graph through the same path the
// server uses.
func loadGraph(t *testing.T, name string, scale int, directed bool) *lagraph.Graph[float64] {
	t.Helper()
	var e *gen.EdgeList
	if directed {
		e = gen.Twitter(scale, 4, 7)
	} else {
		e = gen.Kron(scale, 4, 7)
	}
	ptr, idx, vals := e.CSR()
	A, err := grb.ImportCSR(e.N, e.N, ptr, idx, vals, false)
	if err != nil {
		t.Fatalf("ImportCSR: %v", err)
	}
	kind := lagraph.AdjacencyUndirected
	if directed {
		kind = lagraph.AdjacencyDirected
	}
	g, err := lagraph.New(&A, kind)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return g
}

// scrape reads r's series the way /metrics does: through Instrument, one
// rendered exposition, parsed back by name.
func scrape(t *testing.T, r *Registry) map[string]float64 {
	t.Helper()
	o := obs.NewRegistry()
	r.Instrument(o)
	var buf bytes.Buffer
	if err := o.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exp, err := obs.ParseExposition(&buf)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, s := range exp.Samples {
		out[s.Name] = s.Value
	}
	return out
}

func TestAddAcquireRemove(t *testing.T) {
	r := New(0)
	g := loadGraph(t, "g", 6, true)
	if _, err := r.Add("g", g); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if _, err := r.Add("g", loadGraph(t, "g", 5, true)); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate Add: got %v, want ErrExists", err)
	}
	l, err := r.Acquire("g")
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if l.Graph() != g {
		t.Fatal("lease returned a different graph")
	}
	if _, err := r.Acquire("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Acquire missing: got %v, want ErrNotFound", err)
	}
	if err := r.Remove("g"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	// The lease still works after removal; release is idempotent.
	if l.Graph().NumNodes() == 0 {
		t.Fatal("leased graph unusable after Remove")
	}
	l.Release()
	l.Release()
	if err := r.Remove("g"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second Remove: got %v, want ErrNotFound", err)
	}
}

func TestLRUEvictionRespectsLeases(t *testing.T) {
	small := loadGraph(t, "a", 5, true)
	per := EstimateBytes(small)
	// Budget fits two graphs of this size but not three.
	r := New(2*per + per/2)

	if _, err := r.Add("a", small); err != nil {
		t.Fatalf("Add a: %v", err)
	}
	if _, err := r.Add("b", loadGraph(t, "b", 5, true)); err != nil {
		t.Fatalf("Add b: %v", err)
	}
	// Touch "a" so "b" is the LRU victim.
	la, err := r.Acquire("a")
	if err != nil {
		t.Fatalf("Acquire a: %v", err)
	}
	la.Release()

	if _, err := r.Add("c", loadGraph(t, "c", 5, true)); err != nil {
		t.Fatalf("Add c (should evict b): %v", err)
	}
	if _, err := r.Acquire("b"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("b should have been evicted, Acquire got %v", err)
	}
	la2, err := r.Acquire("a")
	if err != nil {
		t.Fatalf("a should have survived: %v", err)
	}
	la2.Release()
	if got := scrape(t, r)["registry_evictions_total"]; got != 1 {
		t.Fatalf("evictions = %v, want 1", got)
	}

	// Pin both residents: the next Add must fail rather than evict.
	lc, err := r.Acquire("c")
	if err != nil {
		t.Fatalf("Acquire c: %v", err)
	}
	defer lc.Release()
	la3, err := r.Acquire("a")
	if err != nil {
		t.Fatalf("Acquire a: %v", err)
	}
	if _, err := r.Add("d", loadGraph(t, "d", 5, true)); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("Add with all entries pinned: got %v, want ErrNoCapacity", err)
	}
	// Unpin "a": the next Add succeeds by evicting it.
	la3.Release()
	if _, err := r.Add("e", loadGraph(t, "e", 5, true)); err != nil {
		t.Fatalf("Add with one evictable entry: %v", err)
	}
	if _, err := r.Acquire("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("a should have been evicted for e, Acquire got %v", err)
	}
}

// TestEvictionSkipsLeasedTail: with two leased graphs at the LRU tail, an
// insert that needs the room of two graphs evicts the two least recently
// used unleased ones, in LRU order, and an insert that cannot fit evicts
// nothing even though some graph is unleased.
func TestEvictionSkipsLeasedTail(t *testing.T) {
	per := EstimateBytes(loadGraph(t, "p", 5, true))
	big := loadGraph(t, "big", 6, true)
	if EstimateBytes(big) < per*3/2 {
		t.Fatalf("a scale-6 graph (%d B) is under 1.5× a scale-5 one (%d B)", EstimateBytes(big), per)
	}
	// Five small graphs fit; the big one fits only after two of them go.
	r := New(3*per + EstimateBytes(big) + per/2)
	var evicted []string
	r.AddRemoveListener(func(name string, reason RemoveReason) {
		if reason == RemoveEvicted {
			evicted = append(evicted, name)
		}
	})
	for _, name := range []string{"a", "b", "c", "d", "e"} {
		if _, err := r.Add(name, loadGraph(t, name, 5, true)); err != nil {
			t.Fatalf("Add %s: %v", name, err)
		}
	}
	// Lease a and b, then touch c, d and e in that order: from the LRU
	// tail the registry reads a, b (both leased), c, d, e.
	for _, name := range []string{"a", "b"} {
		l, err := r.Acquire(name)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Release()
	}
	for _, name := range []string{"c", "d", "e"} {
		l, err := r.Acquire(name)
		if err != nil {
			t.Fatal(err)
		}
		l.Release()
	}

	if _, err := r.Add("big", big); err != nil {
		t.Fatalf("Add big: %v", err)
	}
	if len(evicted) != 2 || evicted[0] != "c" || evicted[1] != "d" {
		t.Fatalf("evicted %v, want [c d]", evicted)
	}
	for _, name := range []string{"a", "b", "e", "big"} {
		if _, ok := r.Info(name); !ok {
			t.Fatalf("%s should be resident", name)
		}
	}

	// Pin big: only e is unleased now, and it is too small to make room
	// for a second big graph, so the insert fails and e stays.
	lbig, err := r.Acquire("big")
	if err != nil {
		t.Fatal(err)
	}
	defer lbig.Release()
	if _, err := r.Add("big2", loadGraph(t, "big2", 6, true)); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("Add big2: %v, want ErrNoCapacity", err)
	}
	if _, ok := r.Info("e"); !ok || len(evicted) != 2 {
		t.Fatalf("a failing insert evicted: resident e %v, evicted %v", ok, evicted)
	}
	if got := scrape(t, r)["registry_evictions_total"]; got != 2 {
		t.Fatalf("evictions = %v, want 2", got)
	}
}

func TestOversizeGraphRejected(t *testing.T) {
	g := loadGraph(t, "g", 6, true)
	r := New(EstimateBytes(g) - 1)
	if _, err := r.Add("g", g); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("oversize Add: got %v, want ErrNoCapacity", err)
	}
}

func TestSingleFlightPropertyMaterialization(t *testing.T) {
	r := New(0)
	e, err := r.Add("g", loadGraph(t, "g", 7, true))
	if err != nil {
		t.Fatalf("Add: %v", err)
	}

	const callers = 16
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := e.EnsureProperties(PropAT, PropRowDegree); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("EnsureProperties: %v", err)
	}

	if e.Graph().CachedAT() == nil || e.Graph().CachedRowDegree() == nil {
		t.Fatal("properties not materialized")
	}
	m := scrape(t, r)
	if got := m["registry_property_computes_total"]; got != 2 {
		t.Fatalf("property computes = %v, want 2 (one per property, shared by %d callers)", got, callers)
	}
	if got := m["registry_property_requests_total"]; got != 2*callers {
		t.Fatalf("property requests = %v, want %d", got, 2*callers)
	}
}

// TestInstrumentExportsCounters: a graph's info and the registry-wide
// series agree, and a property found already on the graph (an undirected
// graph is symmetric by construction) is a request but not a compute.
func TestInstrumentExportsCounters(t *testing.T) {
	r := New(0)
	e, err := r.Add("und", loadGraph(t, "und", 5, false))
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := e.EnsureProperties(PropAT, PropRowDegree, PropColDegree, PropSymmetry, PropNDiag); err != nil {
		t.Fatalf("EnsureProperties: %v", err)
	}
	e.CountAlgRun()
	graphs := r.List()
	if len(graphs) != 1 {
		t.Fatalf("graphs = %d, want 1", len(graphs))
	}
	gi := graphs[0]
	if gi.Kind != "undirected" || gi.Nodes == 0 || gi.Edges == 0 {
		t.Fatalf("bad graph info: %+v", gi)
	}
	if len(gi.CachedProp) != 5 {
		t.Fatalf("cached properties = %v, want all 5", gi.CachedProp)
	}
	m := scrape(t, r)
	for name, want := range map[string]float64{
		"registry_graphs":                  1,
		"registry_resident_bytes":          float64(gi.Bytes),
		"registry_loads_total":             1,
		"registry_algorithm_runs_total":    1,
		"registry_property_requests_total": 5,
		"registry_property_computes_total": 4,
	} {
		if m[name] != want {
			t.Errorf("%s = %v, want %v", name, m[name], want)
		}
	}
}

// TestGraphVersioning pins the version contract the jobs engine's result
// cache keys on: every load, replacement and delete of a name bumps its
// version, and versions are never reused across incarnations.
func TestGraphVersioning(t *testing.T) {
	r := New(0)
	e1, err := r.Add("g", loadGraph(t, "g", 5, false))
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	if e1.Version() != 1 {
		t.Fatalf("first version = %d, want 1", e1.Version())
	}
	if info, _ := r.Info("g"); info.Version != 1 {
		t.Fatalf("Info version = %d, want 1", info.Version)
	}
	if err := r.Remove("g"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	// Delete bumps, so the re-add lands two past the original.
	e2, err := r.Add("g", loadGraph(t, "g", 5, false))
	if err != nil {
		t.Fatalf("re-Add: %v", err)
	}
	if e2.Version() <= e1.Version() {
		t.Fatalf("re-added version %d not past %d", e2.Version(), e1.Version())
	}
	if e2.Version() != 3 {
		t.Fatalf("re-added version = %d, want 3 (load, delete, load)", e2.Version())
	}
	// An unrelated name starts its own sequence.
	o, err := r.Add("other", loadGraph(t, "other", 5, true))
	if err != nil {
		t.Fatalf("Add other: %v", err)
	}
	if o.Version() != 1 {
		t.Fatalf("other version = %d, want 1", o.Version())
	}
}

// TestVersionBumpOnEviction: LRU eviction retires the version exactly like
// an explicit delete.
func TestVersionBumpOnEviction(t *testing.T) {
	g := loadGraph(t, "a", 5, false)
	per := EstimateBytes(g)
	r := New(per + per/2) // room for one graph only
	ea, err := r.Add("a", g)
	if err != nil {
		t.Fatalf("Add a: %v", err)
	}
	if _, err := r.Add("b", loadGraph(t, "b", 5, false)); err != nil {
		t.Fatalf("Add b (evicting a): %v", err)
	}
	if _, ok := r.Info("a"); ok {
		t.Fatal("a should have been evicted")
	}
	// Re-adding evicts b in turn; the new "a" must carry a version past
	// the evicted one (load=1, eviction bumps to 2, reload=3).
	ea2, err := r.Add("a", loadGraph(t, "a", 5, false))
	if err != nil {
		t.Fatalf("re-Add after eviction: %v", err)
	}
	if ea2.Version() <= ea.Version() {
		t.Fatalf("post-eviction version %d not past %d", ea2.Version(), ea.Version())
	}
}

func TestRestoreCarriesVersionForward(t *testing.T) {
	r := New(0)
	if _, err := r.Restore("g", loadGraph(t, "g", 5, true), 0); err == nil {
		t.Fatal("Restore accepted version 0")
	}
	e, err := r.Restore("g", loadGraph(t, "g", 5, true), 7)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if e.Version() != 7 {
		t.Fatalf("restored version = %d, want 7", e.Version())
	}
	if _, err := r.Restore("g", loadGraph(t, "g", 5, true), 9); !errors.Is(err, ErrExists) {
		t.Fatalf("double restore: err = %v, want ErrExists", err)
	}
	// The version counter continues from the restored value: a swap (what
	// a mutation batch publishes) lands on 8, and a delete + re-add can
	// never reuse a restored version.
	g2 := loadGraph(t, "g", 5, true)
	e2, err := r.Swap("g", g2, SwapStats{Nodes: g2.NumNodes(), Edges: g2.NumEdges()})
	if err != nil {
		t.Fatalf("Swap: %v", err)
	}
	if e2.Version() != 8 {
		t.Fatalf("post-restore swap version = %d, want 8", e2.Version())
	}
	if err := r.Remove("g"); err != nil {
		t.Fatal(err)
	}
	e3, err := r.Add("g", loadGraph(t, "g", 5, true))
	if err != nil {
		t.Fatal(err)
	}
	if e3.Version() <= 8 {
		t.Fatalf("re-add version = %d, want > 8", e3.Version())
	}
}

func TestRemoveListenersGetReasons(t *testing.T) {
	r := New(0)
	type event struct {
		name   string
		reason RemoveReason
	}
	var mu sync.Mutex
	var got []event
	// Two listeners: both must fire (the stream engine and the durable
	// store each register one).
	for i := 0; i < 2; i++ {
		r.AddRemoveListener(func(name string, reason RemoveReason) {
			mu.Lock()
			got = append(got, event{name, reason})
			mu.Unlock()
		})
	}
	small := loadGraph(t, "small", 4, false)
	if _, err := r.Add("small", small); err != nil {
		t.Fatal(err)
	}
	if err := r.Remove("small"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if len(got) != 2 || got[0].reason != RemoveExplicit || got[1].reason != RemoveExplicit {
		t.Fatalf("explicit remove events = %+v", got)
	}
	got = nil
	mu.Unlock()

	// Force an eviction: a budget that fits one graph but not two.
	g1 := loadGraph(t, "g1", 6, false)
	budget := EstimateBytes(g1) + EstimateBytes(g1)/2
	r2 := New(budget)
	var evicted []event
	r2.AddRemoveListener(func(name string, reason RemoveReason) {
		evicted = append(evicted, event{name, reason})
	})
	if _, err := r2.Add("g1", g1); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Add("g2", loadGraph(t, "g2", 6, false)); err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 || evicted[0].name != "g1" || evicted[0].reason != RemoveEvicted {
		t.Fatalf("eviction events = %+v", evicted)
	}
}

// TestWhileResident: fn runs only while a graph of that name is resident.
func TestWhileResident(t *testing.T) {
	r := New(0)
	if _, err := r.Add("g", loadGraph(t, "g", 4, false)); err != nil {
		t.Fatal(err)
	}
	ran := 0
	r.WhileResident("g", func() { ran++ })
	r.WhileResident("missing", func() { ran += 10 })
	if err := r.Remove("g"); err != nil {
		t.Fatal(err)
	}
	r.WhileResident("g", func() { ran += 100 })
	if ran != 1 {
		t.Fatalf("fn ran for %d (1 = resident only), want 1", ran)
	}
}
