package lagraph

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"lagraph/internal/gen"
	"lagraph/internal/grb"
)

// Kind tells algorithms how to interpret the adjacency matrix (paper
// Listing 1: LAGraph_Kind).
type Kind int

const (
	// AdjacencyUndirected: A(i,j) is the undirected edge {i,j}; A must
	// have a symmetric pattern.
	AdjacencyUndirected Kind = iota
	// AdjacencyDirected: A(i,j) is the directed edge i→j.
	AdjacencyDirected
)

// KindName returns a string with the name of a graph kind (paper §V).
func KindName(k Kind) string {
	switch k {
	case AdjacencyUndirected:
		return "undirected"
	case AdjacencyDirected:
		return "directed"
	default:
		return "unknown"
	}
}

// ParseKind is the inverse of KindName: the one parser behind the store's
// meta.json and the upload API's ?kind=.
func ParseKind(name string) (Kind, error) {
	switch name {
	case "undirected":
		return AdjacencyUndirected, nil
	case "directed":
		return AdjacencyDirected, nil
	}
	return 0, errf(StatusInvalidKind, "unknown graph kind %q (directed|undirected)", name)
}

// BoolProp is a three-valued cached boolean property
// (LAGraph_BooleanProperty).
type BoolProp int8

const (
	BoolUnknown BoolProp = iota
	BoolFalse
	BoolTrue
)

func (b BoolProp) String() string {
	switch b {
	case BoolTrue:
		return "true"
	case BoolFalse:
		return "false"
	default:
		return "unknown"
	}
}

// Property names one of the cached properties of a Graph.
type Property int

const (
	PropAT Property = iota
	PropRowDegree
	PropColDegree
	PropSymmetry
	PropNDiag
	// NumProperties counts the properties above, for loops over all of them.
	NumProperties
)

var propertyNames = [NumProperties]string{"AT", "RowDegree", "ColDegree", "ASymmetricPattern", "NDiag"}

func (p Property) String() string {
	if p < 0 || p >= NumProperties {
		return fmt.Sprintf("Property(%d)", int(p))
	}
	return propertyNames[p]
}

// Graph is the LAGraph_Graph of paper Listing 1: primary components (A,
// Kind) plus cached properties. It is intentionally not opaque — any field
// may be read or assigned, and code that mutates A is responsible for
// keeping the cached properties consistent (or calling DeleteProperties).
//
// Ensure computes a property unless Cached reports it cached, once for
// every caller (Basic mode's contract); the Property* methods wrap it.
//
// Concurrency: Ensure, the Property* methods and DeleteProperties are safe
// to call from multiple goroutines (a mutex guards the cached-property
// fields and is held through each computation). Concurrent readers must
// use Cached and the Cached* accessors rather than reading the fields
// directly; direct field access remains valid only for single-goroutine
// use. A itself is treated as immutable while the graph is shared.
type Graph[T grb.Value] struct {
	// primary components
	A    *grb.Matrix[T]
	Kind Kind

	// cached properties
	AT                *grb.Matrix[T]     // transpose of A, or nil if unknown
	RowDegree         *grb.Vector[int64] // out-degrees (entries only where > 0)
	ColDegree         *grb.Vector[int64] // in-degrees (entries only where > 0)
	ASymmetricPattern BoolProp
	NDiag             int64 // number of self-edges; -1 if unknown

	// mu guards the cached-property fields above. The primary components
	// are immutable once the graph is shared, so they need no lock.
	mu sync.Mutex
}

// New creates a Graph, taking ownership of *A ("move constructor": *A is
// set to nil so the caller cannot accidentally free or alias it — paper
// Listing 1 line 21).
func New[T grb.Value](A **grb.Matrix[T], kind Kind) (*Graph[T], error) {
	if A == nil || *A == nil {
		return nil, errf(StatusNullPointer, "New: A is nil")
	}
	if kind != AdjacencyUndirected && kind != AdjacencyDirected {
		return nil, errf(StatusInvalidKind, "New: unknown kind %d", kind)
	}
	g := &Graph[T]{A: *A, Kind: kind}
	*A = nil
	g.resetProperties()
	return g, nil
}

// FromEdgeList builds the graph of a generated edge list: its CSR arrays
// become the adjacency matrix (weights when the list carries them, unit
// values otherwise) and its Directed flag the kind. Every loader of a
// synthetic graph — server, bench harness, graphgen, examples — calls it.
// The list must be sorted by (src, dst) with no repeated edge, as every
// generator and gen.EdgeList.Dedup leave it; a list out of that order or
// with a vertex outside [0, N) is StatusInvalidGraph.
func FromEdgeList(e *gen.EdgeList) (*Graph[float64], error) {
	last := -1
	for k, s := range e.Src {
		u, v := int(s), int(e.Dst[k])
		if u < 0 || u >= e.N || v < 0 || v >= e.N || u*e.N+v <= last {
			return nil, errf(StatusInvalidGraph, "FromEdgeList: edge %d (%d, %d) is outside [0, %d), repeated or out of (src, dst) order", k, u, v, e.N)
		}
		last = u*e.N + v
	}
	ptr, idx, vals := e.CSR()
	A, err := grb.ImportCSR(e.N, e.N, ptr, idx, vals, false)
	if err != nil {
		return nil, wrap(StatusInvalidGraph, err, "FromEdgeList")
	}
	kind := AdjacencyUndirected
	if e.Directed {
		kind = AdjacencyDirected
	}
	return New(&A, kind)
}

// DeleteProperties clears all cached properties, resetting them to unknown
// (paper §V).
func (g *Graph[T]) DeleteProperties() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.resetProperties()
}

// resetProperties sets every cached property to unknown, except that an
// undirected graph's pattern is symmetric by definition (the caller
// asserts it; CheckGraph verifies).
func (g *Graph[T]) resetProperties() {
	g.AT, g.RowDegree, g.ColDegree, g.NDiag = nil, nil, nil, -1
	g.ASymmetricPattern = BoolUnknown
	if g.Kind == AdjacencyUndirected {
		g.ASymmetricPattern = BoolTrue
	}
}

// Snapshot returns a copy-on-write clone of the graph for streaming
// mutation: the clone's adjacency matrix shares A's CSR arrays and pending
// operations (grb.Matrix.Snapshot), buffering edge upserts and deletions as
// pending tuples and tombstones that never touch the shared structure — so
// the receiver, and every algorithm still reading it, keeps its view.
//
// Cached properties are invalidated on the clone, with two exceptions the
// mutation layer can maintain more cheaply than a recompute: an
// undirected clone keeps ASymmetricPattern = true by construction
// (mirrored mutations preserve it), and the caller may re-seed NDiag from
// its incremental self-loop count by assigning the field before the clone
// is shared. Degrees and AT are recomputed by whichever reader needs them.
// A must not be jumbled; its pending operations are shared. Snapshot does
// not call Wait because the receiver may be concurrently read.
func (g *Graph[T]) Snapshot() (*Graph[T], error) {
	if g == nil || g.A == nil {
		return nil, errf(StatusInvalidGraph, "Snapshot: graph has no matrix")
	}
	a, err := g.A.Snapshot()
	if err != nil {
		return nil, wrap(StatusInvalidGraph, err, "Snapshot")
	}
	ng := &Graph[T]{A: a, Kind: g.Kind}
	ng.resetProperties()
	return ng, nil
}

// NumNodes returns the number of vertices.
func (g *Graph[T]) NumNodes() int { return g.A.NRows() }

// NumEdges returns the number of stored entries of A.
func (g *Graph[T]) NumEdges() int { return g.A.NVals() }

// ---------------------------------------------------------------------------
// property computation (LAGraph_Property_* of paper §V)

// Ensure computes property p and caches it on the graph unless it is
// already cached, and reports whether it computed. It is the one
// materialization: the Property* methods, the Basic-mode kernels and the
// service's registry all call it. The graph mutex is held through the
// computation, so however many goroutines demand p at once, one computes
// it and the rest find it cached.
func (g *Graph[T]) Ensure(p Property) (computed bool, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.A == nil {
		return false, errf(StatusInvalidGraph, "Ensure(%s): graph has no matrix", p)
	}
	if g.cached(p) {
		return false, nil
	}
	err = g.compute(p)
	return err == nil, err
}

// compute computes property p unless it is cached, with g.mu held.
func (g *Graph[T]) compute(p Property) error {
	if g.cached(p) {
		return nil
	}
	switch p {
	case PropAT:
		// For undirected graphs AT aliases A (the pattern is symmetric).
		if g.Kind == AdjacencyUndirected {
			g.AT = g.A
			return nil
		}
		at := grb.NewTranspose(g.A)
		at.Wait() // publish a finished matrix so readers never mutate it
		g.AT = at
	case PropRowDegree:
		deg, err := degreeOf(g.A, nil)
		if err != nil {
			return err
		}
		g.RowDegree = deg
	case PropColDegree:
		if g.Kind == AdjacencyUndirected {
			err := g.compute(PropRowDegree)
			g.ColDegree = g.RowDegree // nil, still unknown, on error
			return err
		}
		// Without a cached AT, the in-degrees are the column counts of A.
		A, desc := g.A, grb.DescT0
		if g.AT != nil {
			A, desc = g.AT, nil
		}
		deg, err := degreeOf(A, desc)
		if err != nil {
			return err
		}
		g.ColDegree = deg
	case PropSymmetry:
		eq := g.A.NRows() == g.A.NCols()
		if eq {
			if err := g.compute(PropAT); err != nil {
				return err
			}
			var err error
			if eq, err = samePattern(g.A, g.AT); err != nil {
				return err
			}
		}
		g.ASymmetricPattern = BoolFalse
		if eq {
			g.ASymmetricPattern = BoolTrue
		}
	case PropNDiag:
		var zero T
		d := grb.MustMatrix[T](g.A.NRows(), g.A.NCols())
		if err := grb.Select(d, grb.NoMask, nil, grb.Diag[T](), g.A, zero, nil); err != nil {
			return wrap(StatusInvalidValue, err, "NDiag")
		}
		g.NDiag = int64(d.NVals())
	default:
		return errf(StatusInvalidValue, "Ensure: unknown property %d", int(p))
	}
	return nil
}

// property is the Property* methods' contract: nil when p was computed,
// a WarnGraphUnchanged warning when it was already cached.
func (g *Graph[T]) property(p Property) error {
	computed, err := g.Ensure(p)
	if err == nil && !computed {
		return &Warning{Status: WarnGraphUnchanged, Msg: p.String() + " already cached"}
	}
	return err
}

// PropertyAT computes and caches the transpose of G.A.
func (g *Graph[T]) PropertyAT() error { return g.property(PropAT) }

// PropertyRowDegree computes and caches the out-degree vector.
func (g *Graph[T]) PropertyRowDegree() error { return g.property(PropRowDegree) }

// PropertyColDegree computes and caches the in-degree vector.
func (g *Graph[T]) PropertyColDegree() error { return g.property(PropColDegree) }

// PropertyASymmetricPattern determines whether pattern(A) == pattern(Aᵀ)
// and caches the answer.
func (g *Graph[T]) PropertyASymmetricPattern() error { return g.property(PropSymmetry) }

// PropertyNDiag counts self-edges and caches the count.
func (g *Graph[T]) PropertyNDiag() error { return g.property(PropNDiag) }

// degreeOf counts the entries of each row of op(A), op per desc.TranA:
// deg = op(A)·x over a full x, LAGraph_Cached_OutDegree's mxv on the
// plus-one semiring (plus.pair here). Its pull over a full x reads only
// A's row pointers. Rows with no entry stay absent.
func degreeOf[T grb.Value](A *grb.Matrix[T], desc *grb.Descriptor) (*grb.Vector[int64], error) {
	nr, nc := A.Dims()
	if desc != nil && desc.TranA {
		nr, nc = nc, nr
	}
	deg := grb.MustVector[int64](nr)
	ones := grb.DenseVector(nc, true)
	if err := grb.MxV(deg, grb.NoVMask, nil, grb.PlusPair[T, bool, int64](), A, ones, desc); err != nil {
		return nil, wrap(StatusInvalidValue, err, "degree")
	}
	deg.Wait()
	return deg, nil
}

// samePattern reports whether A and B store entries at the same positions.
func samePattern[T grb.Value](A, B *grb.Matrix[T]) (bool, error) {
	return IsAll(A, B, func(T, T) bool { return true })
}

// ---------------------------------------------------------------------------
// concurrency-safe property accessors
//
// Cached and the Cached* accessors read the cached-property fields under
// the graph mutex, so they are safe to call while another goroutine is
// inside Ensure. They compute nothing (nil / BoolUnknown / -1 when not
// cached). Algorithms in this package read properties only through them.

// Cached reports whether property p is cached on the graph.
func (g *Graph[T]) Cached(p Property) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cached(p)
}

func (g *Graph[T]) cached(p Property) bool {
	known := [NumProperties]bool{
		PropAT:        g.AT != nil,
		PropRowDegree: g.RowDegree != nil,
		PropColDegree: g.ColDegree != nil,
		PropSymmetry:  g.ASymmetricPattern != BoolUnknown,
		PropNDiag:     g.NDiag >= 0,
	}
	return p >= 0 && p < NumProperties && known[p]
}

// CachedAT returns the cached transpose, or nil if not cached.
func (g *Graph[T]) CachedAT() *grb.Matrix[T] {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.AT
}

// CachedRowDegree returns the cached out-degree vector, or nil.
func (g *Graph[T]) CachedRowDegree() *grb.Vector[int64] {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.RowDegree
}

// CachedColDegree returns the cached in-degree vector, or nil.
func (g *Graph[T]) CachedColDegree() *grb.Vector[int64] {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.ColDegree
}

// CachedSymmetry returns the cached pattern-symmetry property.
func (g *Graph[T]) CachedSymmetry() BoolProp {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.ASymmetricPattern
}

// CachedNDiag returns the cached self-edge count, or -1 if unknown.
func (g *Graph[T]) CachedNDiag() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.NDiag
}

// ---------------------------------------------------------------------------
// display / debug (paper §V)

// CheckGraph checks the validity of a graph: the matrix exists, cached
// properties that are present are consistent with A, and an undirected
// graph really has a symmetric pattern. Needed because the graph is not
// opaque (paper §V).
func (g *Graph[T]) CheckGraph() error {
	if g == nil || g.A == nil {
		return errf(StatusInvalidGraph, "CheckGraph: no adjacency matrix")
	}
	if g.Kind != AdjacencyUndirected && g.Kind != AdjacencyDirected {
		return errf(StatusInvalidKind, "CheckGraph: invalid kind %d", g.Kind)
	}
	nr, nc := g.A.Dims()
	if nr != nc {
		return errf(StatusInvalidGraph, "CheckGraph: adjacency matrix is %dx%d, not square", nr, nc)
	}
	if g.Kind == AdjacencyUndirected {
		eq, err := samePattern(g.A, grb.NewTranspose(g.A))
		if err != nil {
			return err
		}
		if !eq {
			return errf(StatusInvalidGraph, "CheckGraph: undirected graph with asymmetric pattern")
		}
	}
	if at := g.CachedAT(); at != nil {
		if tr, tc := at.Dims(); tr != nc || tc != nr {
			return errf(StatusInvalidGraph, "CheckGraph: cached AT is %dx%d, want %dx%d", tr, tc, nc, nr)
		}
	}
	if rd := g.CachedRowDegree(); rd != nil && rd.Size() != nr {
		return errf(StatusInvalidGraph, "CheckGraph: RowDegree length %d, want %d", rd.Size(), nr)
	}
	if cd := g.CachedColDegree(); cd != nil && cd.Size() != nc {
		return errf(StatusInvalidGraph, "CheckGraph: ColDegree length %d, want %d", cd.Size(), nc)
	}
	return nil
}

// DisplayGraph writes a human-readable summary of the graph and its cached
// properties.
func (g *Graph[T]) DisplayGraph(w io.Writer) {
	fmt.Fprintf(w, "LAGraph.Graph: %s, %d nodes, %d entries\n",
		KindName(g.Kind), g.NumNodes(), g.A.NVals())
	fmt.Fprintf(w, "  A: %v\n", g.A)
	if at := g.CachedAT(); at != nil {
		fmt.Fprintf(w, "  AT: cached (%v)\n", at)
	} else {
		fmt.Fprintln(w, "  AT: unknown")
	}
	for _, p := range []struct {
		name string
		v    *grb.Vector[int64]
	}{{"RowDegree", g.CachedRowDegree()}, {"ColDegree", g.CachedColDegree()}} {
		if p.v != nil {
			fmt.Fprintf(w, "  %s: cached (%d entries)\n", p.name, p.v.NVals())
		} else {
			fmt.Fprintf(w, "  %s: unknown\n", p.name)
		}
	}
	fmt.Fprintf(w, "  ASymmetricPattern: %s\n", g.CachedSymmetry())
	if nd := g.CachedNDiag(); nd >= 0 {
		fmt.Fprintf(w, "  NDiag: %d\n", nd)
	} else {
		fmt.Fprintln(w, "  NDiag: unknown")
	}
}

// ---------------------------------------------------------------------------
// degree utilities (paper §V)

// SampleDegree estimates the mean and median row degree by sampling
// nsamples rows deterministically (paper §V; the TC heuristic input).
func (g *Graph[T]) SampleDegree(nsamples int) (mean, median float64, err error) {
	rowDegree := g.CachedRowDegree()
	if rowDegree == nil {
		return 0, 0, errf(StatusPropertyMissing, "SampleDegree: RowDegree not cached")
	}
	n := g.NumNodes()
	if n == 0 {
		return 0, 0, nil
	}
	if nsamples < 1 {
		nsamples = 64
	}
	if nsamples > n {
		nsamples = n
	}
	samples := make([]int64, 0, nsamples)
	var sum int64
	// Deterministic stride sampling, like LAGraph's SampleDegree helper.
	stride := n / nsamples
	if stride == 0 {
		stride = 1
	}
	for i := 0; i < n && len(samples) < nsamples; i += stride {
		d, e := rowDegree.ExtractElement(i)
		if e != nil {
			d = 0 // absent entry = degree 0
		}
		samples = append(samples, d)
		sum += d
	}
	sort.Slice(samples, func(a, b int) bool { return samples[a] < samples[b] })
	mean = float64(sum) / float64(len(samples))
	median = float64(samples[len(samples)/2])
	return mean, median, nil
}

// SortByDegree returns a permutation that sorts the vertices by row degree
// (ascending when ascending is true), ties broken by vertex id for
// determinism (paper §V): a stable counting sort, O(n + max degree).
func (g *Graph[T]) SortByDegree(ascending bool) ([]int, error) {
	rowDegree := g.CachedRowDegree()
	if rowDegree == nil {
		return nil, errf(StatusPropertyMissing, "SortByDegree: RowDegree not cached")
	}
	deg, top := make([]int64, g.NumNodes()), int64(0)
	rowDegree.Iterate(func(i int, d int64) { deg[i], top = d, max(top, d) })
	start := make([]int, top+2) // start[k+1] counts sort key k, then start[k] is where its run begins
	for i, d := range deg {
		if !ascending {
			deg[i] = top - d
		}
		start[deg[i]+1]++
	}
	for k := 1; k < len(start); k++ {
		start[k] += start[k-1]
	}
	perm := make([]int, len(deg))
	for i, k := range deg {
		perm[start[k]] = i
		start[k]++
	}
	return perm, nil
}
