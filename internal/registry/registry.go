// Package registry is the named-graph store behind the lagraphd service:
// a thread-safe map from names to resident LAGraph graphs, with
// ref-counting leases and LRU eviction by estimated memory footprint.
// Concurrent requests against one graph share its cached properties: the
// graph computes each property once (lagraph.Graph.Ensure), and the
// registry counts the demands and the computes.
//
// The paper's LAGraph_Graph caches derived properties precisely so that
// repeated algorithm invocations on the same graph amortize setup cost;
// the registry extends that amortization across requests of a long-lived
// service.
package registry

import (
	"container/list"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lagraph/internal/lagraph"
	"lagraph/internal/obs"
)

// Property is lagraph.Property, under the names the registry's callers
// use when they demand properties of an entry.
type Property = lagraph.Property

const (
	PropAT        = lagraph.PropAT
	PropRowDegree = lagraph.PropRowDegree
	PropColDegree = lagraph.PropColDegree
	PropSymmetry  = lagraph.PropSymmetry
	PropNDiag     = lagraph.PropNDiag
)

// Registry errors, distinguishable by errors.Is.
var (
	ErrNotFound    = errors.New("registry: graph not found")
	ErrExists      = errors.New("registry: graph already exists")
	ErrNoCapacity  = errors.New("registry: graph does not fit in memory budget")
	ErrClosed      = errors.New("registry: closed")
	ErrInvalidName = errors.New("registry: invalid graph name")
	ErrConflict    = errors.New("registry: entry replaced concurrently")
)

// Entry is one resident graph. Its mutable fields are atomics so Info can
// snapshot them without taking the registry lock.
type Entry struct {
	name    string
	graph   *lagraph.Graph[float64]
	bytes   int64
	version uint64 // monotonic per name; see Registry.versions

	// nodes and edges are captured when the entry is created (Add or
	// Swap), so stats paths never have to touch the graph's matrix — a
	// streamed-in snapshot may still carry unassembled delta operations,
	// and counting its entries would finalize it out from under the
	// EnsureFinalized single flight.
	nodes int
	edges int
	// pendingOps counts the pending operations the snapshot was published
	// with (0 for loaded graphs and freshly compacted snapshots).
	pendingOps int64

	refs     atomic.Int64 // outstanding leases
	loadedAt time.Time
	lastUsed atomic.Int64 // unix nanos of the last Acquire

	// finalizeOnce makes the first reader's lazy finalization of a
	// streamed snapshot (assembling pending deltas into private CSR
	// arrays) a single flight: every algorithm run passes through
	// EnsureFinalized before touching the matrix, so the assembly
	// happens-before any concurrent kernel read.
	finalizeOnce sync.Once

	// reg points back at the owning registry, whose counters outlive the
	// entry (eviction, swap), so the exported totals stay monotone.
	reg *Registry

	elem *list.Element // position in the registry's LRU list
}

// Name returns the graph's registry name.
func (e *Entry) Name() string { return e.name }

// Graph returns the resident graph. The caller must hold a lease (see
// Registry.Acquire) for as long as it uses the returned pointer.
func (e *Entry) Graph() *lagraph.Graph[float64] { return e.graph }

// Bytes returns the entry's estimated memory footprint.
func (e *Entry) Bytes() int64 { return e.bytes }

// Version returns this entry's per-name graph version: a monotonically
// increasing counter bumped every time the name is loaded, replaced or
// deleted. Results computed against (name, version) — the jobs engine's
// cache key — can therefore never be served for a different incarnation
// of the graph.
func (e *Entry) Version() uint64 { return e.version }

// CountAlgRun records one algorithm invocation against this graph.
func (e *Entry) CountAlgRun() { e.reg.algorithmRuns.Add(1) }

// PendingDeltaOps returns the number of pending operations its matrix held
// when Swap published this snapshot (grb.Matrix.PendingTuples).
func (e *Entry) PendingDeltaOps() int64 { return e.pendingOps }

// EnsureFinalized assembles any pending delta operations in the graph's
// adjacency matrix into private CSR arrays, exactly once per entry. Every
// reader that will touch the matrix structure (algorithm runs, property
// materialization) must call it first; the sync.Once gives the assembly a
// happens-before edge over all subsequent reads.
func (e *Entry) EnsureFinalized() {
	e.finalizeOnce.Do(func() {
		e.graph.A.Wait()
	})
}

// EnsureProperties materializes the requested properties on the graph,
// which computes each once however many callers demand it
// (lagraph.Graph.Ensure). Every demand counts as a property request; only
// a demand that ran a computation counts as a property compute — not one
// that found the value already on the graph (the NDiag the stream engine
// carries onto a mutated snapshot, or a compaction republishing the same
// graph).
//
// The entry is finalized first: property computations read the adjacency
// matrix, and only EnsureFinalized's single flight may assemble a streamed
// snapshot's pending deltas.
func (e *Entry) EnsureProperties(props ...Property) error {
	e.EnsureFinalized()
	for _, p := range props {
		e.reg.propertyRequests.Add(1)
		computed, err := e.graph.Ensure(p)
		if err != nil {
			return err
		}
		if computed {
			e.reg.propertyComputes.Add(1)
		}
	}
	return nil
}

// Lease is a ref-counted handle on a resident graph. Release must be
// called exactly once; until then the entry cannot be evicted.
type Lease struct {
	entry    *Entry
	released atomic.Bool
}

// Entry returns the leased entry.
func (l *Lease) Entry() *Entry { return l.entry }

// Graph returns the leased graph.
func (l *Lease) Graph() *lagraph.Graph[float64] { return l.entry.graph }

// Release returns the lease. It is idempotent.
func (l *Lease) Release() {
	if l.released.Swap(true) {
		return
	}
	l.entry.refs.Add(-1)
}

// Registry is the thread-safe named-graph store.
type Registry struct {
	mu       sync.Mutex
	entries  map[string]*Entry
	lru      *list.List // front = most recently used
	maxBytes int64
	curBytes int64
	closed   bool

	// versions survives the entries themselves: it is bumped on every
	// load, replacement and delete of a name, so a re-added graph always
	// carries a version the old one never had.
	versions map[string]uint64

	// onRemove listeners are called whenever a name stops resolving —
	// explicit Remove or LRU eviction (not Swap, which re-binds the name
	// immediately) — with the reason. They run under the registry mutex:
	// a listener must not call back into the registry. The
	// streaming-mutation engine uses one to drop its per-graph delta
	// state; the durable store uses one to delete on-disk state on an
	// explicit Remove (eviction keeps the durable copy).
	onRemove []func(name string, reason RemoveReason)

	evictions atomic.Int64
	loads     atomic.Int64
	swaps     atomic.Int64

	// Fed by the entries (see Entry.reg), so they survive eviction and
	// replacement.
	propertyRequests atomic.Int64
	propertyComputes atomic.Int64
	algorithmRuns    atomic.Int64
}

// New creates a registry with the given memory budget in bytes. A budget
// <= 0 means unlimited.
func New(maxBytes int64) *Registry {
	return &Registry{
		entries:  make(map[string]*Entry),
		lru:      list.New(),
		maxBytes: maxBytes,
		versions: make(map[string]uint64),
	}
}

// EstimateBytes estimates the resident footprint of a graph: the CSR
// arrays of A, the projected transpose for directed graphs (undirected
// graphs alias AT = A), and the degree vectors. The estimate is taken at
// load time and deliberately includes the not-yet-materialized properties,
// so eviction decisions do not shift under a graph as its cache warms.
func EstimateBytes(g *lagraph.Graph[float64]) int64 {
	return EstimateBytesFor(g.NumNodes(), g.NumEdges(), g.Kind == lagraph.AdjacencyDirected)
}

// EstimateBytesFor is EstimateBytes from raw counts, for Swap: a streamed
// snapshot's counts come from its publisher, since counting its entries
// would assemble its pending operations.
func EstimateBytesFor(nodes, edges int, directed bool) int64 {
	n := int64(nodes)
	nnz := int64(edges)
	// CSR: ptr (n+1)*8 + idx nnz*8 + val nnz*8.
	matrix := (n+1)*8 + nnz*16
	total := matrix
	if directed {
		total += matrix // explicit AT
	}
	total += 2 * n * 16 // row/col degree vectors (idx + val)
	return total
}

// Add registers a graph under name, taking ownership of it. If the memory
// budget would be exceeded, least-recently-used unleased graphs are
// evicted first; if the graph still does not fit, Add fails with
// ErrNoCapacity and the registry is unchanged.
func (r *Registry) Add(name string, g *lagraph.Graph[float64]) (*Entry, error) {
	if name == "" {
		return nil, ErrInvalidName
	}
	e := loadedEntry(name, g)

	r.mu.Lock()
	defer r.mu.Unlock()
	e.version = r.versions[name] + 1
	if err := r.insertLocked(e); err != nil {
		return nil, err
	}
	r.versions[name] = e.version
	r.loads.Add(1)
	return e, nil
}

// loadedEntry is Add and Restore's entry for a whole graph, without its
// version.
func loadedEntry(name string, g *lagraph.Graph[float64]) *Entry {
	return &Entry{name: name, graph: g, bytes: EstimateBytes(g), nodes: g.NumNodes(), edges: g.NumEdges()}
}

// insertLocked is the one insertion body behind Add, Restore and Swap:
// capacity check, eviction to fit, and the LRU and memory bookkeeping of
// the caller's entry e. The caller owns the version map and the counters;
// on error the registry is unchanged. Called with r.mu held.
func (r *Registry) insertLocked(e *Entry) error {
	if r.closed {
		return ErrClosed
	}
	if _, ok := r.entries[e.name]; ok {
		return fmt.Errorf("%w: %q", ErrExists, e.name)
	}
	if r.maxBytes > 0 && e.bytes > r.maxBytes {
		return fmt.Errorf("%w: %q needs %d bytes, budget is %d", ErrNoCapacity, e.name, e.bytes, r.maxBytes)
	}
	if r.maxBytes > 0 {
		if err := r.evictLocked(r.maxBytes - e.bytes); err != nil {
			return fmt.Errorf("%w: %q needs %d bytes, %d in use and pinned", ErrNoCapacity, e.name, e.bytes, r.curBytes)
		}
	}
	e.reg = r
	e.loadedAt = time.Now()
	e.lastUsed.Store(e.loadedAt.UnixNano())
	r.linkLocked(e)
	return nil
}

// linkLocked makes e resolve under its name, most recently used, and
// charges its bytes. Called with r.mu held.
func (r *Registry) linkLocked(e *Entry) {
	e.elem = r.lru.PushFront(e)
	r.entries[e.name] = e
	r.curBytes += e.bytes
}

// unlinkLocked undoes linkLocked. Called with r.mu held.
func (r *Registry) unlinkLocked(e *Entry) {
	delete(r.entries, e.name)
	r.lru.Remove(e.elem)
	r.curBytes -= e.bytes
}

// evictLocked removes least-recently-used entries with no outstanding
// leases until curBytes <= budget. One walk from the LRU tail collects
// the victims before anything is evicted, so when the budget cannot be
// met because too much is leased it returns ErrNoCapacity with the
// registry untouched — an Add or Swap that cannot fit must not evict
// innocent graphs on its way to failing.
func (r *Registry) evictLocked(budget int64) error {
	excess := r.curBytes - max(budget, 0)
	var victims []*Entry
	for el := r.lru.Back(); el != nil && excess > 0; el = el.Prev() {
		if e := el.Value.(*Entry); e.refs.Load() == 0 {
			victims = append(victims, e)
			excess -= e.bytes
		}
	}
	if excess > 0 {
		return ErrNoCapacity
	}
	for _, e := range victims {
		r.removeLocked(e, RemoveEvicted)
		r.evictions.Add(1)
	}
	return nil
}

func (r *Registry) removeLocked(e *Entry, reason RemoveReason) {
	r.unlinkLocked(e)
	// Deletion retires the version: any still-cached result for it is
	// unreachable from a future Acquire of the same name.
	r.versions[e.name]++
	for _, fn := range r.onRemove {
		fn(e.name, reason)
	}
}

// RemoveReason tells removal listeners why a name stopped resolving.
type RemoveReason int

const (
	// RemoveExplicit: the graph was deleted by an API call (Remove).
	RemoveExplicit RemoveReason = iota
	// RemoveEvicted: the graph lost its residency to the LRU memory
	// budget. Durable state, if any, survives eviction.
	RemoveEvicted
)

// AddRemoveListener appends a removal callback (see the onRemove field
// for its contract). Call it before the registry is shared.
func (r *Registry) AddRemoveListener(fn func(name string, reason RemoveReason)) {
	r.mu.Lock()
	r.onRemove = append(r.onRemove, fn)
	r.mu.Unlock()
}

// Acquire leases the named graph, bumping its ref-count and LRU position.
func (r *Registry) Acquire(name string) (*Lease, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrClosed
	}
	e, ok := r.entries[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	e.refs.Add(1)
	e.lastUsed.Store(time.Now().UnixNano())
	r.lru.MoveToFront(e.elem)
	return &Lease{entry: e}, nil
}

// Remove deletes the named graph from the registry. Outstanding leases
// keep the underlying graph alive until released, but the name becomes
// free immediately and the memory accounting drops the entry.
func (r *Registry) Remove(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	r.removeLocked(e, RemoveExplicit)
	return nil
}

// Restore registers a graph under name with an explicit version — the
// durable store's load-on-boot path. The version counter for the name is
// raised to at least the given version, so results cached against
// (name, version) before a restart key exactly the same incarnation after
// it, and the first post-restore mutation bumps to version+1 just as it
// would have without the restart. Restore is otherwise Add.
func (r *Registry) Restore(name string, g *lagraph.Graph[float64], version uint64) (*Entry, error) {
	if name == "" {
		return nil, ErrInvalidName
	}
	if version == 0 {
		return nil, fmt.Errorf("registry: Restore %q: version must be >= 1", name)
	}
	e := loadedEntry(name, g)
	e.version = version

	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.insertLocked(e); err != nil {
		return nil, err
	}
	r.versions[name] = max(r.versions[name], version)
	r.loads.Add(1)
	return e, nil
}

// pendingOpBytes estimates the resident cost of one pending operation a
// snapshot carries: the operation itself plus its publisher's index slot.
const pendingOpBytes = 96

// SwapStats describes the snapshot g being published by Swap, which charges
// pendingOpBytes per g.A.PendingTuples() on top of EstimateBytesFor.
type SwapStats struct {
	Nodes int
	Edges int // exact edge count of the snapshot, pending operations applied

	// KeepVersion publishes the snapshot under the replaced entry's
	// version instead of bumping it. Compaction uses this: it republishes
	// the version's own assembled graph, now without a pending delta, so
	// results cached under the version stay valid and new readers see the
	// compacted accounting.
	KeepVersion bool

	// Prev, when non-nil, asserts which entry the snapshot was derived
	// from: Swap fails with ErrConflict if the name now resolves to a
	// different entry (the graph was deleted and re-uploaded mid-flight),
	// so a stale mutation can never overwrite a fresh incarnation.
	Prev *Entry
}

// Swap atomically replaces the named graph with a new snapshot, bumping
// the per-name version (unless st.KeepVersion). Outstanding leases keep
// the old entry's graph alive and untouched — that is the snapshot
// isolation the streaming-mutation engine builds on: in-flight jobs read
// the incarnation they acquired, new acquisitions see the new one. If the
// new snapshot does not fit the memory budget even after evicting
// unleased LRU entries, Swap fails with ErrNoCapacity and the registry is
// unchanged.
func (r *Registry) Swap(name string, g *lagraph.Graph[float64], st SwapStats) (*Entry, error) {
	// g is unshared or already finished, so nothing writes its pending list.
	pending := int64(g.A.PendingTuples())
	bytes := EstimateBytesFor(st.Nodes, st.Edges, g.Kind == lagraph.AdjacencyDirected) + pending*pendingOpBytes
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrClosed
	}
	old, ok := r.entries[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if st.Prev != nil && st.Prev != old {
		return nil, fmt.Errorf("%w: %q", ErrConflict, name)
	}
	e := &Entry{
		name: name, graph: g, bytes: bytes, version: old.version,
		nodes: st.Nodes, edges: st.Edges, pendingOps: pending,
	}
	if !st.KeepVersion {
		e.version++
	}
	// Detach the old entry (leases keep its graph alive), then insert.
	r.unlinkLocked(old)
	if err := r.insertLocked(e); err != nil {
		// Could not fit: put the old entry back, registry unchanged.
		r.linkLocked(old)
		return nil, err
	}
	r.versions[name] = max(r.versions[name], e.version)
	r.swaps.Add(1)
	return e, nil
}

// Close empties the registry; further operations fail with ErrClosed.
func (r *Registry) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	r.entries = make(map[string]*Entry)
	r.lru.Init()
	r.curBytes = 0
}

// GraphInfo is the per-graph stats snapshot.
type GraphInfo struct {
	Name       string   `json:"name"`
	Version    uint64   `json:"version"`
	Kind       string   `json:"kind"`
	Nodes      int      `json:"nodes"`
	Edges      int      `json:"edges"`
	Bytes      int64    `json:"bytes"`
	Refs       int64    `json:"refs"`
	LoadedAt   string   `json:"loaded_at"`
	CachedProp []string `json:"cached_properties"`

	// PendingDeltaOps counts the unassembled streaming-mutation operations
	// layered over this snapshot's base CSR (0 once compacted or for
	// graphs loaded whole).
	PendingDeltaOps int64 `json:"pending_delta_ops"`
}

// Info snapshots this entry's statistics. It reads only atomics and the
// graph's own synchronized accessors, so no registry lock is needed.
func (e *Entry) Info() GraphInfo { return infoOf(e) }

// Info returns one resident graph's info by name.
func (r *Registry) Info(name string) (GraphInfo, bool) {
	r.mu.Lock()
	e, ok := r.entries[name]
	r.mu.Unlock()
	if !ok {
		return GraphInfo{}, false
	}
	return infoOf(e), true
}

// WhileResident runs fn under the registry mutex if a graph of that name
// is resident, so no remove listener runs meanwhile. fn must not call
// back into the registry.
func (r *Registry) WhileResident(name string, fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[name]; ok {
		fn()
	}
}

// infoOf snapshots one entry.
func infoOf(e *Entry) GraphInfo {
	g := e.graph
	var cached []string
	for p := Property(0); p < lagraph.NumProperties; p++ {
		if g.Cached(p) {
			cached = append(cached, p.String())
		}
	}
	return GraphInfo{
		Name:    e.name,
		Version: e.version,
		Kind:    lagraph.KindName(g.Kind),
		// Stored counts, not g.NumNodes()/g.NumEdges(): counting a
		// streamed snapshot's entries would finalize its pending deltas
		// outside the EnsureFinalized single flight.
		Nodes:           e.nodes,
		Edges:           e.edges,
		Bytes:           e.bytes,
		Refs:            e.refs.Load(),
		LoadedAt:        e.loadedAt.UTC().Format(time.RFC3339),
		CachedProp:      cached,
		PendingDeltaOps: e.pendingOps,
	}
}

// List returns info for every resident graph, sorted by name.
func (r *Registry) List() []GraphInfo {
	r.mu.Lock()
	entries := make([]*Entry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.Unlock()
	out := make([]GraphInfo, 0, len(entries))
	for _, e := range entries {
		out = append(out, infoOf(e))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Instrument registers the registry's Prometheus series on o as Func
// instruments: the values stay defined once, in the registry's own
// counters, and are read at scrape time.
func (r *Registry) Instrument(o *obs.Registry) {
	o.GaugeFunc("registry_resident_bytes", "Estimated bytes of resident graphs (CSR + properties).",
		func() float64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			return float64(r.curBytes)
		})
	o.GaugeFunc("registry_budget_bytes", "Memory budget; 0 means unlimited.",
		func() float64 {
			if r.maxBytes <= 0 {
				return 0
			}
			return float64(r.maxBytes)
		})
	o.GaugeFunc("registry_graphs", "Resident graphs.",
		func() float64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			return float64(len(r.entries))
		})
	o.GaugeFunc("registry_leases", "Outstanding leases summed over resident graphs.",
		func() float64 {
			r.mu.Lock()
			entries := make([]*Entry, 0, len(r.entries))
			for _, e := range r.entries {
				entries = append(entries, e)
			}
			r.mu.Unlock()
			var refs int64
			for _, e := range entries {
				refs += e.refs.Load()
			}
			return float64(refs)
		})
	o.CounterFunc("registry_evictions_total", "Graphs evicted by the LRU to fit the budget.",
		func() float64 { return float64(r.evictions.Load()) })
	o.CounterFunc("registry_loads_total", "Graphs loaded or restored into the registry.",
		func() float64 { return float64(r.loads.Load()) })
	o.CounterFunc("registry_swaps_total", "Snapshot swaps published by the stream engine.",
		func() float64 { return float64(r.swaps.Load()) })
	o.CounterFunc("registry_property_requests_total", "Property demands from algorithm runs (cache hits included).",
		func() float64 { return float64(r.propertyRequests.Load()) })
	o.CounterFunc("registry_property_computes_total", "Property demands that ran a computation (misses).",
		func() float64 { return float64(r.propertyComputes.Load()) })
	o.CounterFunc("registry_algorithm_runs_total", "Algorithm invocations against resident graphs.",
		func() float64 { return float64(r.algorithmRuns.Load()) })
}
