package grb

import (
	"container/heap"
	"math"
	"slices"
	"sort"

	"lagraph/internal/parallel"
)

// Kernel fusion. The paper's §VI-B identifies the remaining BFS gap
// against GAP's bfs.cc: "In GraphBLAS, the BFS must be expressed as two
// calls … In GAP's bfs.cc, these two steps are fused, and the
// matrix-vector multiplication can write its result directly into the
// parent vector p. This could be implemented in a future GraphBLAS
// library, since the GraphBLAS API allows for a non-blocking mode … We
// intend to exploit this in the future." FusedFrontierStep implements that
// fusion in both directions over a k-row frontier, for BFS's any.secondi
// (bfsDirOpt, BFSStep) and batched BC's plus.first (Algorithm 3's forward
// phase). The generic VxM/MxV + AssignVector calls remain the reference
// its tests and the §VI-B ablation benchmark compare against.
//
// The same section names delta-stepping SSSP on the Road class, where each
// bucket's tiny frontier pays the vertex count on every call. Its
// relaxation fuses the same way: FusedMinPlusPushStep relaxes every edge
// of the frontier in one pass over A, read in place, as sssp.cc does,
// writes the min.plus push straight into t and files the vertices it
// lowers into bucket bins the caller holds (Bins, sssp.cc's layout kept by
// bin number), so lagraph's SSSPDeltaStepping touches the members of a
// bucket and never all of t. Algorithm 5 stays the reference in its tests.
//
// BC's backward phase fuses as GAP's bc.cc runs it: FusedPlusFirstBackStep
// is a level's two EWiseMults and masked multiply in one pull, finding
// successors by depth instead of by mask. Algorithm 3 as written is the
// reference in lagraph's bc_reference_test.go.

// Bins holds delta-stepping's full distance vector t and its bucket bins
// for a run, as BC's caller holds P and D: bin k lists int32 vertex ids,
// each live there while ⌊t/Δ⌋ is still k. A map and a heap find bins by
// number, so memory is O(n + filed entries) for any Δ, where GAP's slice
// indexed by bin number has max(t)/Δ slots.
type Bins[T Number] struct {
	t     []T
	delta T
	at    map[int]int // bin number → its list; absent, lists[0]
	lists [][]int32   // lists[0] stays empty
	spare []int       // lists no bin holds, emptied
	order binOrder    // the numbers in at
	open  int         // the bin being settled; MaxInt once none is left
	taken int         // how much of it Take has handed out
	seen  []int32     // stamps: reached by a step, or handed out by a Take
	stamp int32
}

// NewBins files t's entries below MaxOf[T] and holds t, which must be full
// and index its entries in int32, for the run; delta must be positive.
func NewBins[T Number](t *Vector[T], delta T) (*Bins[T], error) {
	if t.format != FormatFull || len(t.val) > math.MaxInt32 {
		return nil, errf(InvalidObject, "NewBins: t must be full, of at most 2³¹−1 entries")
	}
	if !(delta > 0) {
		return nil, errf(InvalidValue, "NewBins: delta %v is not positive", delta)
	}
	b := &Bins[T]{t: t.val, delta: delta, at: map[int]int{}, lists: make([][]int32, 1), open: math.MinInt, seen: make([]int32, len(t.val))}
	inf := MaxOf[T]()
	for v, x := range t.val {
		if x < inf {
			if err := b.file(v, x); err != nil {
				return nil, err
			}
		}
	}
	return b, nil
}

// file puts v, lowered to x, into bin ⌊x/Δ⌋. A bin below the open one is
// an error: its vertices' edges were relaxed already, so only a negative
// weight (or an integer distance that overflowed) can lower into it.
func (b *Bins[T]) file(v int, x T) error {
	q := x / b.delta
	if float64(q) >= math.MaxInt {
		return errf(InvalidValue, "delta %v is too small: %v is bin %v, past the int range", b.delta, x, q)
	}
	k := int(q)
	if k < b.open {
		return errf(InvalidValue, "vertex %d lowered to %v, into bin %d below the open bin %d: edge weights must be non-negative", v, x, k, b.open)
	}
	l := b.at[k]
	if l == 0 {
		if l = len(b.lists); len(b.spare) > 0 {
			l, b.spare = b.spare[len(b.spare)-1], b.spare[:len(b.spare)-1]
		} else {
			b.lists = append(b.lists, nil)
		}
		b.at[k] = l
		b.order = append(b.order, k)
		heap.Fix(&b.order, len(b.order)-1)
	}
	b.lists[l] = append(b.lists[l], int32(v))
	return nil
}

// Next closes the open bin and opens the lowest bin above it that holds a
// live vertex, returning its number; ok is false when there is none.
func (b *Bins[T]) Next() (k int, ok bool) {
	for b.close(b.open); len(b.order) > 0; b.close(k) {
		k, b.order[0] = b.order[0], b.order[len(b.order)-1]
		b.order = b.order[:len(b.order)-1]
		heap.Fix(&b.order, 0)
		if k > b.open && slices.ContainsFunc(b.lists[b.at[k]], func(v int32) bool { return b.live(v, k) }) {
			b.open, b.taken = k, 0
			return k, true
		}
	}
	b.open, b.taken = math.MaxInt, 0
	return 0, false
}

// close drops bin k, keeping its list for reuse.
func (b *Bins[T]) close(k int) {
	if l := b.at[k]; l != 0 {
		b.lists[l] = b.lists[l][:0]
		b.spare = append(b.spare, l)
		delete(b.at, k)
	}
}

func (b *Bins[T]) live(v int32, k int) bool { return int(b.t[v]/b.delta) == k }

// nextStamp returns a stamp no entry of seen holds.
func (b *Bins[T]) nextStamp() int32 {
	if b.stamp++; b.stamp == math.MaxInt32 { // wrapped
		clear(b.seen)
		b.stamp = 1
	}
	return b.stamp
}

// Take sets f to the live vertices filed into the open bin since the last
// Take (since Next, the whole bin), each once, at its value in t, jumbled.
// It returns their number.
func (b *Bins[T]) Take(f *Vector[T]) int {
	l := b.lists[b.at[b.open]]
	seen, stamp := b.seen, b.nextStamp()
	idx, val := f.idx[:0], f.val[:0]
	for _, v := range l[b.taken:] {
		if seen[v] != stamp && b.live(v, b.open) {
			seen[v] = stamp
			idx, val = append(idx, int(v)), append(val, b.t[v])
		}
	}
	b.taken = len(l)
	f.store = store[T]{nr: 1, nc: f.nc, idx: idx, val: val}
	f.syncRow()
	if len(idx) > 1 {
		f.markJumbled()
	}
	return len(idx)
}

// binOrder is a min-heap of bin numbers, kept by heap.Fix without boxing.
type binOrder []int

func (h binOrder) Len() int           { return len(h) }
func (h binOrder) Less(i, j int) bool { return h[i] < h[j] }
func (h binOrder) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *binOrder) Push(x any)        { *h = append(*h, x.(int)) }
func (h *binOrder) Pop() any          { x := (*h)[len(*h)-1]; *h = (*h)[:len(*h)-1]; return x }

// FusedMinPlusPushStep performs, in one pass over the frontier's edges in
// A, read in place,
//
//	tReqᵀ = fᵀ min.plus A;  t = t min∪ tReq
//
// in b's t, filing every vertex it lowers into b. A NaN weight is no edge,
// as Select with ValueLE and thunk MaxOf[T] drops it. It returns
// nvals(tReq). Frontier values are read from f, never from t, as the
// unfused VxM reads them.
func FusedMinPlusPushStep[T Number](b *Bins[T], f *Vector[T], A *Matrix[T]) (reached int, err error) {
	n := A.NRows()
	if A.NCols() != n {
		return 0, errf(DimensionMismatch, "FusedMinPlusPushStep: A must be square")
	}
	if len(b.t) != n || f.Size() != n {
		return 0, dimErr("FusedMinPlusPushStep", "vector length", "A dimension")
	}
	A.Wait()
	if len(f.pend) > 0 || f.format != FormatSparse {
		f.ConvertTo(FormatSparse)
	}
	dist, seen, stamp := b.t, b.seen, b.nextStamp()
	sparse, bitmap := A.format == FormatSparse, A.format == FormatBitmap
	for q, k := range f.idx {
		lo, hi := k*n, (k+1)*n // A(k,:)'s positions
		if sparse {
			lo, hi = A.ptr[k], A.ptr[k+1]
		}
		for p := lo; p < hi; p++ {
			j, w := p-lo, A.val[p]
			if sparse {
				j = A.idx[p]
			} else if bitmap && A.b[p] == 0 {
				continue
			}
			if seen[j] != stamp && w == w { // a NaN weight is no edge
				seen[j], reached = stamp, reached+1
			}
			if d := f.val[q] + w; d < dist[j] {
				dist[j] = d
				if e := b.file(j, d); e != nil && err == nil {
					err = e
				}
			}
		}
	}
	return reached, err
}

// FusedFrontierStep is one forward level of a traversal over a k-row
// frontier F, one row per source, as a single pass:
//
//	C⟨¬s(P), r⟩ = F ⊕.⊗ A;  P⟨s(C)⟩ ⊕= C;  D⟨s(C)⟩ = d + 1
//
// F is the level-d frontier. P and D (int32 depths) are k×n of one
// pattern, made bitmap on the first call and held by the caller for the
// whole traversal. P's type picks the semiring: int64 is any.secondi (the
// first hit wins and stores the frontier vertex's id, BFS's parent),
// float64 is plus.first (every hit adds F's value, BC's path count).
//
// Push walks A's rows from F's entries in ascending order. Pull walks AT's
// rows for every unvisited (k, j), reading the frontier as P's cells at
// depth d, cut by vertex and weighted by in-degree; a parent stops at the
// first hit, GAP's bottom-up early exit. Either way a parent is the least
// frontier in-neighbour, whatever the worker count. A bitmap or full A is
// read in place. C, which may be F, is a k-row sparse matrix, one entry
// list per source, jumbled after a push. A push may pass a nil AT, and a
// parents' push a nil D. It returns nvals(C).
func FusedFrontierStep[T Value, V int64 | float64](C, F, P *Matrix[V], D *Matrix[int32], A, AT *Matrix[T], pull bool) (int, error) {
	ns, n := F.Dims()
	if A.nr != n || A.nc != n || C.nr != ns || C.nc != n || P.nr != ns || P.nc != n ||
		D != nil && (D.nr != ns || D.nc != n) || AT != nil && (AT.nr != n || AT.nc != n) {
		return 0, errf(DimensionMismatch, "FusedFrontierStep: A and AT must be %dx%d, C, P and D %dx%d", n, n, ns, n)
	}
	_, parent := any(*new(V)).(int64)
	if D == nil && (pull || !parent) || pull && AT == nil {
		return 0, errf(NullPointer, "FusedFrontierStep: a pull needs AT and D, a path count D")
	}
	X := A
	if pull {
		X = AT
	}
	ptr, idx, xb := patternOf(X)
	if len(F.pend) > 0 || F.format != FormatSparse || parent && F.jumbled {
		F.ConvertTo(FormatSparse) // and sorted, where the order picks parents
	}
	if F.ptr[ns] == 0 {
		C.Clear()
		return 0, nil
	}
	P.ConvertTo(FormatBitmap)
	pb, pv := P.b, P.val
	var db []int8
	var dv []int32
	var d int32 // the frontier's depth
	if D != nil {
		D.ConvertTo(FormatBitmap)
		db, dv = D.b, D.val
		d = dv[(sort.SearchInts(F.ptr, 1)-1)*n+F.idx[0]]
	}
	var cb []int8
	if pull {
		// Each piece sums its own vertices' cells of a bitmap C borrowed
		// from the pool, reading only P and D; P and D take C's entries once
		// all have read, and the borrowed cells are cleared as they do.
		slab, vals := getSlice[int8](ns*n), getSlice[V](ns*n)
		defer func() { putSlice(slab); putSlice(vals) }()
		C.store = store[V]{nr: ns, nc: n, format: FormatBitmap, b: *slab, val: *vals}
		cb = C.b
		cv := C.val
		parallel.Blocks(n, ptr, func(lo, hi int) struct{} {
			for j := lo; j < hi; j++ {
				for base := 0; base < ns*n; base += n {
					if pb[base+j] != 0 {
						continue
					}
					var sum V
					for _, i := range patternRow(ptr, idx, j) {
						if c := base + i; pb[c] != 0 && dv[c] == d && patternHas(xb, n, j, i) {
							if parent {
								cb[base+j], sum = 1, V(i)
								break
							}
							cb[base+j], sum = 1, sum+pv[c]
						}
					}
					cv[base+j] = sum
				}
			}
			return struct{}{}
		})
		C.bitmapToSparse()
	} else {
		rows, found := make([]int, ns+1), make([]int, 0, F.ptr[ns])
		for k := 0; k < ns; k++ {
			base := k * n
			for p := F.ptr[k]; p < F.ptr[k+1]; p++ {
				i, v := F.idx[p], F.val[p]
				if parent {
					v = V(i)
				}
				for _, j := range patternRow(ptr, idx, i) {
					if c := base + j; pb[c] == 0 && patternHas(xb, n, i, j) {
						pb[c], pv[c] = 1, v
						if db != nil {
							db[c], dv[c] = 1, d+1
						}
						found = append(found, j)
					} else if !parent && dv[c] == d+1 && patternHas(xb, n, i, j) {
						pv[c] += v
					}
				}
			}
			rows[k+1] = len(found)
		}
		C.store = store[V]{nr: ns, nc: n, ptr: rows, idx: found, val: make([]V, len(found))}
	}
	nf := C.ptr[ns]
	for k := 0; k < ns; k++ {
		for p := C.ptr[k]; p < C.ptr[k+1]; p++ {
			if c := k*n + C.idx[p]; pull {
				pb[c], pv[c], db[c], dv[c] = 1, C.val[p], 1, d+1
				cb[c] = 0
			} else {
				C.val[p] = pv[c]
			}
		}
	}
	P.nvalsB += nf
	if D != nil {
		D.nvalsB += nf
	}
	if !pull && nf > 1 {
		C.markJumbled()
	}
	return nf, nil
}

// FusedBFSStep is FusedFrontierStep at k = 1 on BFS's vectors, in place:
// q is the frontier and becomes the next one, p holds the parents and d
// the depths. It returns nvals(q).
func FusedBFSStep[T Value](p, q *Vector[int64], d *Vector[int32], A, AT *Matrix[T], pull bool) (int, error) {
	return FusedFrontierStep(q.asRow(), q.asRow(), p.asRow(), d.asRow(), A, AT, pull)
}

// FusedPlusFirstBackStep is one backward level of batched Brandes BC
// (Algorithm 3's lines 14-18) as a single pull: for each entry (k, v) of
// F, at depth d = D(k, v),
//
//	B(k, v) += P(k, v) · Σ_{w ∈ A(v,:), D(k, w) = d+1} B(k, w) / P(k, w)
//
// P and D are what FusedFrontierStep left, F one of its frontiers, and B
// is full. It is cut by F's entries, weighted by out-degree; each writes
// its own cell of B and reads cells one level deeper, so the result does
// not depend on the worker count.
func FusedPlusFirstBackStep[T Value](B, F, P *Matrix[float64], D *Matrix[int32], A *Matrix[T]) error {
	ns, n := F.Dims()
	if A.nr != n || A.nc != n || B.nr != ns || B.nc != n || P.nr != ns || P.nc != n || D.nr != ns || D.nc != n {
		return errf(DimensionMismatch, "FusedPlusFirstBackStep: A must be %dx%d, B, P and D %dx%d", n, n, ns, n)
	}
	if B.format != FormatFull {
		return errf(InvalidObject, "FusedPlusFirstBackStep: B must be full")
	}
	ptr, idx, ab := patternOf(A)
	if len(F.pend) > 0 || F.format != FormatSparse {
		F.ConvertTo(FormatSparse)
	}
	P.ConvertTo(FormatBitmap)
	D.ConvertTo(FormatBitmap)
	bv, pb, pv, dv := B.val, P.b, P.val, D.val
	nnz := F.ptr[ns]
	step := func(lo, hi int) struct{} {
		k := sort.SearchInts(F.ptr, lo+1) - 1 // the row of entry lo
		for p := lo; p < hi; p++ {
			for p >= F.ptr[k+1] {
				k++
			}
			base, v := k*n, F.idx[p]
			next := dv[base+v] + 1
			var sum float64
			for _, w := range patternRow(ptr, idx, v) {
				if c := base + w; dv[c] == next && pb[c] != 0 && patternHas(ab, n, v, w) {
					sum += bv[c] / pv[c]
				}
			}
			bv[base+v] += pv[base+v] * sum
		}
		return struct{}{}
	}
	if parallel.Threads(nnz) == 1 {
		step(0, nnz)
		return nil
	}
	weight := make([]int, nnz+1)
	for p, v := range F.idx[:nnz] {
		weight[p+1] = weight[p] + len(patternRow(ptr, idx, v))
	}
	parallel.Blocks(nnz, weight, step)
	return nil
}

// patternOf is a finished matrix's pattern, read in place: ptr and idx
// are its CSR arrays, or, when it is bitmap or full, ptr is nil and idx
// every column, which b then filters (nil when full).
func patternOf[T Value](A *Matrix[T]) (ptr, idx []int, b []int8) {
	A.Wait()
	if A.format == FormatSparse {
		return A.ptr, A.idx, nil
	}
	idx = make([]int, A.nc)
	for j := range idx {
		idx[j] = j
	}
	return nil, idx, A.b
}

// patternRow is row i's candidate columns in a pattern; patternHas reports
// whether column j of row i is stored, nc being the matrix's width. The
// loops above ask it last, so a sparse matrix pays it only on a hit.
func patternRow(ptr, idx []int, i int) []int {
	if ptr == nil {
		return idx
	}
	return idx[ptr[i]:ptr[i+1]]
}

func patternHas(b []int8, nc, i, j int) bool { return b == nil || b[i*nc+j] != 0 }
