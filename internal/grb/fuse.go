package grb

import (
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
// relaxation fuses the same way: FusedMinPlusPushStep writes the min.plus
// push straight into the distance vector and hands back only what it
// lowered, so lagraph's SSSPDeltaStepping touches the members of a bucket
// and never all of t. The generic VxM + EWiseAddV pair (Algorithm 5 as
// written) stays the reference in its tests and the BenchmarkSSSPRoad
// ablation.
//
// BC's backward phase fuses as GAP's bc.cc runs it: FusedPlusFirstBackStep
// is a level's two EWiseMults and masked multiply in one pull, finding
// successors by depth instead of by mask. Algorithm 3 as written is the
// reference in lagraph's bc_reference_test.go.

// FusedMinPlusPushStep performs, in a single pass over the frontier's
// edges,
//
//	tReqᵀ = fᵀ min.plus A      (the relaxation)
//	t     = t min∪ tReq        (the merge)
//
// in place in t, which must be full. It then replaces f with the entries
// of t it lowered, carrying their new values, and may leave f jumbled. It
// returns nvals(tReq): the number of distinct vertices the frontier's
// edges reach. The pass reads each frontier value from f, never from t, so
// an edge between two frontier vertices relaxes from the value the
// frontier had, as the unfused VxM does.
func FusedMinPlusPushStep[T Number](t, f *Vector[T], A *Matrix[T]) (reached int, err error) {
	n := A.NRows()
	if A.NCols() != n {
		return 0, errf(DimensionMismatch, "FusedMinPlusPushStep: A must be square")
	}
	if t.Size() != n || f.Size() != n {
		return 0, dimErr("FusedMinPlusPushStep", "vector length", "A dimension")
	}
	if t.format != FormatFull {
		return 0, errf(InvalidObject, "FusedMinPlusPushStep: t must be full")
	}
	A.Wait()
	if len(f.pend) > 0 {
		f.Wait()
	}
	f.syncRow()
	// The accumulator deduplicates the targets: its mark is "reached", its
	// value the t(j) the step found, so lowered means t(j) < s.val[j] after
	// the pass.
	s := getSPA[T](n)
	s.reset()
	dist := t.val
	relax := func(j int, d T) {
		if !s.has(j) {
			s.put(j, dist[j])
		}
		if d < dist[j] {
			dist[j] = d
		}
	}
	f.rowIter(0, func(k int, fk T) {
		if A.format == FormatSparse {
			for p := A.ptr[k]; p < A.ptr[k+1]; p++ {
				relax(A.idx[p], fk+A.val[p])
			}
			return
		}
		base := k * A.nc
		for j := 0; j < A.nc; j++ {
			if A.format == FormatFull || A.b[base+j] != 0 {
				relax(j, fk+A.val[base+j])
			}
		}
	})
	lowered := 0
	for _, j := range s.touched {
		if dist[j] < s.val[j] {
			lowered++
		}
	}
	nextIdx, nextVal := make([]int, 0, lowered), make([]T, 0, lowered)
	for _, j := range s.touched {
		if dist[j] < s.val[j] {
			nextIdx, nextVal = append(nextIdx, j), append(nextVal, dist[j])
		}
	}
	reached = len(s.touched)
	putSPA(s)
	f.Clear()
	f.idx, f.val = nextIdx, nextVal
	if len(nextIdx) > 1 {
		f.markJumbled()
	}
	f.conform()
	return reached, nil
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
		slab, vals := getSlab(ns*n), getSPA[V](ns*n)
		defer func() { putSlab(slab); putSPA(vals) }()
		C.store = store[V]{nr: ns, nc: n, format: FormatBitmap, b: *slab, val: vals.val}
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
