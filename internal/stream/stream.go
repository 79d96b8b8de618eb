// Package stream is lagraphd's streaming-mutation engine: it lets clients
// evolve resident graphs with batched edge upserts and deletions instead
// of full re-uploads, the way SuiteSparse:GraphBLAS's non-blocking mode
// absorbs updates as pending tuples between analytic passes.
//
// Each mutated graph is backed by a per-name state around a private head
// graph: an immutable base CSR whose delta log is the head matrix's own
// pending tuples and tombstones. Applying a batch buffers its operations on
// the head and publishes an O(1) copy-on-write snapshot of it to the
// registry — the snapshot shares the base arrays and the log so far
// (grb.Matrix.Snapshot), assembled lazily by its first reader. Publication
// goes through registry.Swap, which bumps the per-graph version: in-flight
// jobs keep the incarnation they leased (snapshot isolation), the jobs
// result cache re-keys automatically, and new submissions see the new
// graph.
//
// Once the log crosses a size or ratio threshold, the batch that crossed
// it starts a compaction on a goroutine of its own (one runs at a time;
// Close waits for them). The compaction advances the head onto the
// current version's assembled CSR — the registry finalizes each version
// once, often for a reader that got there first — and checkpoints it;
// when no batch raced it, the same graph is republished under the *same*
// version with no pending delta (content is unchanged, so cached results
// stay valid). The edge and self-loop counts are maintained incrementally
// across batches; degrees and every other property are recomputed on
// demand, as for a freshly loaded graph.
package stream

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lagraph/internal/grb"
	"lagraph/internal/lagraph"
	"lagraph/internal/obs"
	"lagraph/internal/registry"
)

// Op names for Op.Op.
const (
	OpUpsert = "upsert"
	OpDelete = "delete"
)

// Op is one edge operation in a mutation batch.
type Op struct {
	Op  string `json:"op"` // "upsert" | "delete"
	Src int    `json:"src"`
	Dst int    `json:"dst"`
	// Weight is the upserted edge weight; nil means 1 (the unweighted
	// convention). Ignored for deletes.
	Weight *float64 `json:"weight,omitempty"`
}

// Engine errors, distinguishable by errors.Is. Registry errors
// (registry.ErrNotFound, ...) pass through Apply unchanged.
var (
	ErrClosed        = errors.New("stream: engine closed")
	ErrBadBatch      = errors.New("stream: invalid batch")
	ErrBatchTooLarge = errors.New("stream: batch too large")
)

// Journal is the durability hook the engine drives (implemented by
// internal/store). AppendBatch is called — with the batch exactly as
// submitted, before any mirroring — after validation and *before* the
// snapshot is published under version; a non-nil error rejects the batch.
// RevertBatch undoes the most recent append for the graph when the
// publish itself failed, so an unacknowledged batch can never replay.
// Checkpoint hands over a compacted base: the assembled matrix published
// as version, every delta merged in. AppendBatch and RevertBatch for one
// graph are serialized by the engine; Checkpoint runs on a compaction's
// goroutine, one at a time engine-wide and so in version order per graph,
// and may overlap them, so implementations must do their own per-graph
// file locking.
type Journal interface {
	AppendBatch(graph string, version uint64, ops []Op) error
	RevertBatch(graph string, version uint64)
	Checkpoint(graph string, kind lagraph.Kind, m *grb.Matrix[float64], version uint64) error
}

// Options tunes the engine.
type Options struct {
	// CompactThreshold is the delta-log length (in applied operations,
	// mirrored ops included) that schedules a background compaction.
	// <= 0 means 4096.
	CompactThreshold int
	// CompactRatio schedules compaction once the delta log reaches this
	// fraction of the base CSR's entry count. <= 0 means 0.25.
	CompactRatio float64
	// MaxBatchOps bounds one Apply call. <= 0 means 65536.
	MaxBatchOps int
	// Obs is the metrics registry the engine's counters live in; the same
	// instruments back the engine's Stats and the Prometheus exposition.
	// Nil selects a private registry.
	Obs *obs.Registry
}

func (o *Options) fill() {
	if o.CompactThreshold <= 0 {
		o.CompactThreshold = 4096
	}
	if o.CompactRatio <= 0 {
		o.CompactRatio = 0.25
	}
	if o.MaxBatchOps <= 0 {
		o.MaxBatchOps = 65536
	}
	if o.Obs == nil {
		o.Obs = obs.NewRegistry()
	}
}

// graphState is the per-name mutation state. mu serializes mutation and
// compaction for the graph; different graphs proceed in parallel.
//
// The delta log is head.A's pending operations (already mirrored for
// undirected graphs) over base's arrays, which head shares; every published
// version is a snapshot of head. A state that never reset has no head.
type graphState struct {
	mu sync.Mutex

	// entry is the registry entry the state last published (or was reset
	// from): its version is the state's, and its graph is a snapshot of head.
	entry *registry.Entry
	kind  lagraph.Kind
	n     int

	base    *grb.Matrix[float64]    // finished CSR shared by head and every snapshot
	head    *lagraph.Graph[float64] // private: base plus the delta log, never assembled
	baseNNZ int

	// overlay indexes the log for has by cell i·n + j, as grb does: live
	// (true) or deleted at each position the log touched (compaction prunes
	// what the new base answers), so len(overlay) <= pending().
	overlay map[int]bool

	// Incremental bookkeeping, exact at all times.
	edges int
	ndiag int64

	compactScheduled bool
}

// Result reports what one applied batch did.
type Result struct {
	Graph   string `json:"graph"`
	Version uint64 `json:"version"` // registry version the batch published

	Applied int `json:"applied_ops"` // ops as submitted
	Upserts int `json:"upserts"`
	Deletes int `json:"deletes"`

	EdgesAdded   int `json:"edges_added"`
	EdgesRemoved int `json:"edges_removed"`
	Edges        int `json:"edges"` // stored entries after the batch

	PendingOps          int  `json:"pending_delta_ops"`
	CompactionScheduled bool `json:"compaction_scheduled"`
}

// Stats is the engine-wide counter snapshot, for tests and benchmarks.
type Stats struct {
	GraphsTracked int `json:"graphs_tracked"`

	Batches         int64 `json:"batches"`
	OpsApplied      int64 `json:"ops_applied"`
	Upserts         int64 `json:"upserts"`
	Deletes         int64 `json:"deletes"`
	RejectedBatches int64 `json:"rejected_batches"`

	Compactions  int64 `json:"compactions"`
	CompactedOps int64 `json:"compacted_ops"`
	PendingOps   int64 `json:"pending_delta_ops"`
}

// Engine applies mutation batches against a registry's resident graphs.
type Engine struct {
	reg  *registry.Registry
	opts Options

	mu      sync.Mutex
	states  map[string]*graphState
	closed  bool
	journal Journal

	wg        sync.WaitGroup // scheduled compactions; Close waits for them
	compactMu sync.Mutex     // one compaction at a time: checkpoints reach the journal in version order

	// compactStart is the unixnano at which the compaction holding
	// compactMu started, 0 while none runs, so /healthz can tell a hung
	// checkpoint write from a busy engine.
	compactStart atomic.Int64

	// Engine telemetry: obs instruments shared by Stats and the Prometheus
	// exposition.
	batches      *obs.Counter
	opsApplied   *obs.Counter
	upserts      *obs.Counter
	deletes      *obs.Counter
	rejected     *obs.Counter
	compactions  *obs.Counter
	compactedOps *obs.Counter
	applySecs    *obs.Histogram
	compactSecs  *obs.Histogram
}

// NewEngine builds an engine over reg. The engine registers itself as
// the registry's removal listener so a deleted or LRU-evicted graph's
// delta state (which pins the base CSR) is dropped with it.
func NewEngine(reg *registry.Registry, opts Options) *Engine {
	opts.fill()
	o := opts.Obs
	e := &Engine{
		reg:    reg,
		opts:   opts,
		states: make(map[string]*graphState),

		batches:      o.Counter("stream_batches_total", "Mutation batches applied (no-op batches included)."),
		opsApplied:   o.Counter("stream_ops_applied_total", "Edge operations accepted across all batches."),
		upserts:      o.Counter("stream_upserts_total", "Upsert operations applied."),
		deletes:      o.Counter("stream_deletes_total", "Delete operations applied."),
		rejected:     o.Counter("stream_rejected_batches_total", "Batches rejected by validation or state errors."),
		compactions:  o.Counter("stream_compactions_total", "Background delta-log compactions completed."),
		compactedOps: o.Counter("stream_compacted_ops_total", "Delta-log operations merged away by compaction."),
		applySecs: o.Histogram("stream_apply_seconds",
			"Mutation batch apply latency: validation through snapshot publication.", nil),
		compactSecs: o.Histogram("stream_compaction_seconds",
			"Background compaction duration: finalize of the current version through adoption, republish and checkpoint.", nil),
	}
	o.GaugeFunc("stream_pending_delta_ops", "Delta-log operations not yet compacted, summed over graphs.",
		func() float64 { return float64(e.pendingOps()) })
	o.GaugeFunc("stream_graphs_tracked", "Graphs with live delta state.",
		func() float64 {
			e.mu.Lock()
			defer e.mu.Unlock()
			return float64(len(e.states))
		})
	reg.AddRemoveListener(func(name string, _ registry.RemoveReason) { e.Forget(name) })
	return e
}

// SetJournal attaches the durability journal. Call it after boot-time
// recovery has replayed the journal through Apply (a nil journal during
// replay is what keeps the replayed batches from being re-appended) and
// before the engine serves traffic.
func (e *Engine) SetJournal(j Journal) {
	e.mu.Lock()
	e.journal = j
	e.mu.Unlock()
}

// journalFor returns the attached journal (nil when none).
func (e *Engine) journalFor() Journal {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.journal
}

// Close waits for the scheduled compactions to finish and schedules no
// more; further Apply calls fail with ErrClosed.
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.wg.Wait()
}

// Forget drops the per-graph mutation state (the graph was deleted).
func (e *Engine) Forget(name string) {
	e.mu.Lock()
	delete(e.states, name)
	e.mu.Unlock()
}

// state returns (creating if needed) the per-name state.
func (e *Engine) state(name string) (*graphState, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	st := e.states[name]
	if st == nil {
		st = &graphState{}
		e.states[name] = st
	}
	return st, nil
}

// Apply validates and applies one mutation batch to the named graph,
// publishing a new snapshot (and version) to the registry. The batch is
// atomic: any invalid operation rejects the whole batch before state
// changes.
func (e *Engine) Apply(name string, ops []Op) (Result, error) {
	return e.ApplyCtx(context.Background(), name, ops)
}

// ApplyCtx is Apply with a context carrying the caller's trace: the
// journal append (the fsync on the write path) gets its own span.
func (e *Engine) ApplyCtx(ctx context.Context, name string, ops []Op) (res Result, err error) {
	start := time.Now()
	defer func() {
		// Every batch is counted here, once: a batch that returns an error
		// is rejected, whichever step refused it (validation, state,
		// journal or publish).
		if err != nil {
			e.rejected.Inc()
		} else {
			e.batches.Inc()
			e.opsApplied.Add(float64(res.Applied))
			e.upserts.Add(float64(res.Upserts))
			e.deletes.Add(float64(res.Deletes))
		}
		e.applySecs.Observe(time.Since(start).Seconds())
	}()
	if len(ops) == 0 {
		return Result{}, fmt.Errorf("%w: empty batch", ErrBadBatch)
	}
	if len(ops) > e.opts.MaxBatchOps {
		return Result{}, fmt.Errorf("%w: %d ops > limit %d", ErrBatchTooLarge, len(ops), e.opts.MaxBatchOps)
	}
	st, err := e.state(name)
	if err != nil {
		return Result{}, err
	}

	st.mu.Lock()
	defer st.mu.Unlock()

	// Pin the current incarnation for the whole apply — under st.mu, so a
	// concurrent batch on the same graph cannot slip between our lease and
	// our publish and make us resync from a stale entry.
	lease, err := e.reg.Acquire(name)
	if err != nil {
		// Don't leak an empty state for a name that never resolved:
		// repeated mutations of unknown graphs must not grow the map.
		if st.base == nil {
			e.mu.Lock()
			if e.states[name] == st {
				delete(e.states, name)
			}
			e.mu.Unlock()
		}
		return Result{}, err
	}
	defer lease.Release()
	entry := lease.Entry()

	if st.base == nil || st.entry.Version() != entry.Version() {
		// First mutation of this incarnation (or the graph was replaced by
		// a fresh upload): rebuild the state from the registry's graph.
		if err := st.resetFrom(entry); err != nil {
			return Result{}, err
		}
	}

	// Validate before touching anything: batches are all-or-nothing.
	for k, op := range ops {
		if op.Op != OpUpsert && op.Op != OpDelete {
			return Result{}, fmt.Errorf("%w: op %d has unknown kind %q (upsert|delete)", ErrBadBatch, k, op.Op)
		}
		if op.Src < 0 || op.Src >= st.n || op.Dst < 0 || op.Dst >= st.n {
			return Result{}, fmt.Errorf("%w: op %d edge (%d,%d) outside %d-node graph", ErrBadBatch, k, op.Src, op.Dst, st.n)
		}
	}

	res = Result{Graph: name, Applied: len(ops)}
	pendingBefore := st.pending()
	for _, op := range ops {
		mirror := st.kind == lagraph.AdjacencyUndirected && op.Src != op.Dst
		switch op.Op {
		case OpUpsert:
			w := 1.0
			if op.Weight != nil {
				w = *op.Weight
			}
			res.Upserts++
			res.EdgesAdded += st.write(op.Src, op.Dst, true, w, mirror)
		case OpDelete:
			res.Deletes++
			res.EdgesRemoved += st.write(op.Src, op.Dst, false, 0, mirror)
		}
	}

	if st.pending() == pendingBefore {
		// Nothing was logged (every delete targeted an absent edge): the
		// graph is content-identical, so don't publish — a version bump
		// would wipe the result cache for an unchanged graph.
		res.Version, res.Edges, res.PendingOps = st.entry.Version(), st.edges, pendingBefore
		return res, nil
	}

	// Durability before visibility: the batch must be on the journal
	// before the snapshot is published. The version it will publish is
	// pinned — entry is leased under st.mu and Swap bumps by one.
	nextVersion := entry.Version() + 1
	journal := e.journalFor()
	if journal != nil {
		_, sp := obs.StartSpan(ctx, "wal append",
			obs.String("graph", name), obs.String("ops", strconv.Itoa(len(ops))))
		err := journal.AppendBatch(name, nextVersion, ops)
		sp.End()
		if err != nil {
			// Not persisted ⇒ not published: drop the unpublished in-memory
			// delta by forcing a resync from the (unchanged) registry entry
			// on the next Apply.
			st.base = nil
			return Result{}, fmt.Errorf("stream: journal append: %w", err)
		}
	}

	g, err := st.snapshot()
	var newEntry *registry.Entry
	if err == nil {
		newEntry, err = e.reg.Swap(name, g, registry.SwapStats{Nodes: st.n, Edges: st.edges, Prev: entry})
	}
	if err != nil {
		// The snapshot or the swap failed (budget, concurrent delete): roll
		// nothing back in memory — the log faithfully describes the
		// mutations — but resync on the next Apply by clearing the
		// published-version marker, and take the unacknowledged batch back
		// off the journal so it can never replay.
		if journal != nil {
			journal.RevertBatch(name, nextVersion)
		}
		st.base = nil
		return Result{}, err
	}
	st.entry = newEntry
	res.Version, res.Edges, res.PendingOps = newEntry.Version(), st.edges, st.pending()
	res.CompactionScheduled = e.maybeScheduleCompact(name, st)
	return res, nil
}

// write logs (i,j), live with weight w or deleted, and (j,i) when mirror (a
// symmetric pattern holds both or neither, so one probe answers for both).
// It returns 1 when an edge appeared or vanished; an absent delete logs nothing.
func (st *graphState) write(i, j int, live bool, w float64, mirror bool) int {
	existed := st.has(i, j)
	if !existed && !live {
		return 0
	}
	st.set(i, j, live, w)
	if mirror {
		st.set(j, i, live, w)
	}
	if existed == live {
		return 0
	}
	d := -1
	if live {
		d = 1
	}
	st.edges += d
	if mirror {
		st.edges += d
	} else if i == j {
		st.ndiag += int64(d)
	}
	return 1
}

// set buffers an upsert or a tombstone at (i,j) on head and in the
// overlay; Apply validated (i,j), so buffering cannot fail.
func (st *graphState) set(i, j int, live bool, w float64) {
	st.overlay[i*st.n+j] = live
	if live {
		_ = st.head.A.SetElement(w, i, j)
	} else {
		_ = st.head.A.RemoveElement(i, j)
	}
}

// pending is the delta log's length: head's pending operations.
func (st *graphState) pending() int { return st.head.A.PendingTuples() }

// has reports whether edge (i,j) is live: the overlay overrides the base.
// It is not a lookup on head: a point lookup through an unindexed pending
// list costs O(pending) per operation.
func (st *graphState) has(i, j int) bool {
	if live, ok := st.overlay[i*st.n+j]; ok {
		return live
	}
	_, err := st.base.ExtractElement(i, j)
	return err == nil
}

// resetFrom rebuilds the state from the registry's current incarnation:
// base CSR, a head with an empty log and overlay, edge count and self-loop
// count. The latter is the graph's own NDiag property, so a reset costs at
// most one property computation per incarnation.
func (st *graphState) resetFrom(entry *registry.Entry) error {
	entry.EnsureFinalized()
	g := entry.Graph()
	if g.A.Format() != grb.FormatSparse {
		return fmt.Errorf("%w: graph is not CSR-backed", ErrBadBatch)
	}
	if err := entry.EnsureProperties(registry.PropNDiag); err != nil {
		return err
	}
	head, err := g.Snapshot()
	if err != nil {
		return err
	}
	st.entry, st.kind, st.n = entry, g.Kind, g.NumNodes()
	st.base, st.head, st.baseNNZ = g.A, head, g.A.NVals()
	st.overlay = make(map[int]bool)
	st.edges, st.ndiag = st.baseNNZ, g.CachedNDiag()
	return nil
}

// snapshot builds the publishable copy-on-write graph in O(1): a
// lagraph.Graph.Snapshot of head, sharing the base CSR and the delta log
// so far, carrying the exact NDiag. Degrees and every other property are
// recomputed by the readers that need them.
func (st *graphState) snapshot() (*lagraph.Graph[float64], error) {
	g, err := st.head.Snapshot()
	if err != nil {
		return nil, err
	}
	g.NDiag = st.ndiag
	return g, nil
}

// maybeScheduleCompact starts a background compaction when the delta log
// crossed the size or ratio threshold; a graph has at most one scheduled.
// Called with st.mu held.
func (e *Engine) maybeScheduleCompact(name string, st *graphState) bool {
	if st.compactScheduled {
		return true
	}
	over := st.pending() >= e.opts.CompactThreshold ||
		(st.baseNNZ > 0 && float64(st.pending()) >= e.opts.CompactRatio*float64(st.baseNNZ))
	if !over {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return false
	}
	st.compactScheduled = true
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		e.compactOne(name)
	}()
	return true
}

// CompactorLive is the /healthz compactor-component probe: it fails once
// the engine is closed, or while the running compaction has held the
// compaction lock for more than staleAfter (a hung checkpoint write).
// Probes should pass a staleAfter comfortably above expected merge times.
func (e *Engine) CompactorLive(staleAfter time.Duration) (bool, string) {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return false, "stream engine closed"
	}
	if start := e.compactStart.Load(); start != 0 {
		if age := time.Since(time.Unix(0, start)); age > staleAfter {
			return false, fmt.Sprintf("compaction running for %s", age.Round(time.Millisecond))
		}
	}
	return true, ""
}

// compactOne folds a graph's delta log into its base by advancing head
// onto the current version's assembled CSR (grb.Matrix.Advance). The
// registry assembles each published version at most once
// (Entry.EnsureFinalized, the single flight every reader shares), so a
// version a reader already finalized compacts for the cost of the
// bookkeeping, and any other pays the assembly its first reader would
// have. That O(nnz) step runs *outside* st.mu — mutation batches keep
// landing while it works — and is adopted under the lock only if the base
// the log was recorded against is still the live one; batches that
// arrived meanwhile stay head's (now much shorter) pending tail.
func (e *Engine) compactOne(name string) {
	e.compactMu.Lock()
	defer e.compactMu.Unlock()
	e.compactStart.Store(time.Now().UnixNano())
	defer e.compactStart.Store(0)
	e.mu.Lock()
	st := e.states[name]
	e.mu.Unlock()
	if st == nil {
		return
	}
	start := time.Now()
	defer func() { e.compactSecs.Observe(time.Since(start).Seconds()) }()

	// The state's own entry publishes the whole log. It is not leased: a
	// pin held through an O(nnz) finalize would make concurrent loads fail
	// for want of an evictable graph, and a deleted or evicted graph's
	// state is dropped by the removal listener anyway.
	st.mu.Lock()
	st.compactScheduled = false
	if st.base == nil || st.pending() == 0 {
		st.mu.Unlock()
		return
	}
	entry, base, merged := st.entry, st.base, st.pending()
	st.mu.Unlock()

	entry.EnsureFinalized()
	g := entry.Graph()

	// Adopt under the lock. Apply only ever appends to the log (resets swap
	// out st.base), so an unchanged base proves the first merged ops of the
	// log are exactly what g assembled.
	st.mu.Lock()
	if st.base != base || st.head.A.Advance(g.A, merged) != nil {
		st.mu.Unlock()
		return // resynced mid-merge; nothing to adopt
	}
	st.base, st.baseNNZ = g.A, g.A.NVals()
	// Prune what the new base answers: a survivor was touched by the tail.
	for k, live := range st.overlay {
		if _, err := g.A.ExtractElement(k/st.n, k%st.n); (err == nil) == live {
			delete(st.overlay, k)
		}
	}
	e.compactions.Inc()
	e.compactedOps.Add(float64(merged))
	if st.pending() == 0 {
		// Republish the same graph under the same version so the entry
		// reports no pending delta. Best-effort: on failure the adopted
		// base still serves every future snapshot.
		if republished, err := e.reg.Swap(name, g, registry.SwapStats{
			Nodes: st.n, Edges: st.edges, KeepVersion: true, Prev: entry,
		}); err == nil {
			st.entry = republished
		}
	}
	st.mu.Unlock()

	// The adopted base is a full checkpoint of the graph at the entry's
	// version: persist it (off every engine lock — it is immutable from here
	// on) so the journal can drop the WAL records it supersedes.
	// Best-effort: a failed checkpoint leaves the longer WAL in place, which
	// only costs replay time.
	if journal := e.journalFor(); journal != nil {
		_ = journal.Checkpoint(name, g.Kind, g.A, entry.Version())
	}
}

// pendingOps sums the per-graph delta-log lengths; a state that never
// reset has no head and no log.
func (e *Engine) pendingOps() int64 {
	e.mu.Lock()
	states := make([]*graphState, 0, len(e.states))
	for _, st := range e.states {
		states = append(states, st)
	}
	e.mu.Unlock()

	var pending int64
	for _, st := range states {
		st.mu.Lock()
		if st.head != nil {
			pending += int64(st.pending())
		}
		st.mu.Unlock()
	}
	return pending
}

// StatsSnapshot returns the engine counters, read back from the same obs
// instruments the Prometheus exposition renders.
func (e *Engine) StatsSnapshot() Stats {
	e.mu.Lock()
	tracked := len(e.states)
	e.mu.Unlock()
	return Stats{
		GraphsTracked:   tracked,
		Batches:         e.batches.Int(),
		OpsApplied:      e.opsApplied.Int(),
		Upserts:         e.upserts.Int(),
		Deletes:         e.deletes.Int(),
		RejectedBatches: e.rejected.Int(),
		Compactions:     e.compactions.Int(),
		CompactedOps:    e.compactedOps.Int(),
		PendingOps:      e.pendingOps(),
	}
}
