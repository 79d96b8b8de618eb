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
// intend to exploit this in the future." This file implements that
// fusion; every push level of lagraph's BFS (bfsDirOpt, BFSStep) runs it.
// The generic VxM + AssignVector pair remains the reference its tests and
// the §VI-B ablation benchmark compare against.
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
// Batched BC (Algorithm 3) fuses the same way, as GAP's bc.cc runs it:
// FusedPlusFirstStep is a forward level's masked plus.first multiply,
// EWiseAdd into the path counts and depth stamp in one pass, and
// FusedPlusFirstBackStep a backward level's two EWiseMults and masked
// multiply in one pull, finding successors by depth instead of by mask.
// Algorithm 3 as written is the reference in lagraph's
// bc_reference_test.go.

// FusedBFSPushStep performs, in a single pass over the frontier's edges,
//
//	qᵀ⟨¬s(pᵀ), r⟩ = qᵀ any.secondi A      (the push step)
//	p⟨s(q)⟩       = q                      (the parent update)
//
// writing newly discovered parents directly into p. q is replaced by the
// next frontier. p is densified to bitmap once (O(1) membership); the BFS
// driver owns it for the whole traversal, so the cost amortises exactly as
// in GAP's parent array.
func FusedBFSPushStep[T Value](p, q *Vector[int64], A *Matrix[T]) error {
	n := A.NRows()
	if A.NCols() != n {
		return errf(DimensionMismatch, "FusedBFSPushStep: A must be square")
	}
	if p.Size() != n || q.Size() != n {
		return dimErr("FusedBFSPushStep", "vector length", "A dimension")
	}
	A.Wait()
	q.Wait()
	p.Wait()
	if p.format == FormatSparse {
		p.ConvertTo(FormatBitmap)
	}
	if p.format == FormatFull {
		// A full parent vector means every vertex is visited: nothing to
		// discover.
		q.Clear()
		return nil
	}
	nextIdx := make([]int, 0, q.NVals())
	nextVal := make([]int64, 0, q.NVals())
	q.Iterate(func(k int, _ int64) {
		if A.format == FormatSparse {
			for pos := A.ptr[k]; pos < A.ptr[k+1]; pos++ {
				j := A.idx[pos]
				if p.b[j] == 0 {
					// Discover j with parent k: the fused mxv+assign.
					p.b[j] = 1
					p.val[j] = int64(k)
					p.nvalsB++
					nextIdx = append(nextIdx, j)
					nextVal = append(nextVal, int64(k))
				}
			}
			return
		}
		base := k * A.nc
		for j := 0; j < A.nc; j++ {
			if (A.format == FormatFull || A.b[base+j] != 0) && p.b[j] == 0 {
				p.b[j] = 1
				p.val[j] = int64(k)
				p.nvalsB++
				nextIdx = append(nextIdx, j)
				nextVal = append(nextVal, int64(k))
			}
		}
	})
	q.Clear()
	q.idx = nextIdx
	q.val = nextVal
	if len(nextIdx) > 1 {
		q.markJumbled()
	}
	q.conform()
	return nil
}

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

// FusedPlusFirstStep is one forward level of batched Brandes BC
// (Algorithm 3's lines 7-9) as a single pass:
//
//	C⟨¬s(P), r⟩ = F plus.first A;  P += C;  D⟨s(C)⟩ = d + 1
//
// F is the level-d frontier: exactly the entries of P at depth d in D,
// with P's values. P (float64) and D (int32) are k×n of one pattern, made
// bitmap on the first call and held by the caller for the whole traversal,
// as BFS holds its parent vector. Push walks A's rows from F's entries;
// pull walks AT's rows for every unvisited (k, j), reading the frontier as
// P's cells at depth d, cut by vertex and weighted by in-degree. C is a
// k-row sparse matrix, one entry list per source, jumbled after a push.
// The result does not depend on the worker count. It returns nvals(C).
func FusedPlusFirstStep[T Value](C, F, P *Matrix[float64], D *Matrix[int32], A, AT *Matrix[T], pull bool) (int, error) {
	ns, n := F.Dims()
	if A.nr != n || A.nc != n || AT.nr != n || AT.nc != n || C.nr != ns || C.nc != n || P.nr != ns || P.nc != n || D.nr != ns || D.nc != n {
		return 0, errf(DimensionMismatch, "FusedPlusFirstStep: A and AT must be %dx%d, C, P and D %dx%d", n, n, ns, n)
	}
	X := A
	if pull {
		X = AT
	}
	ptr, idx := sparsePattern(X)
	if len(F.pend) > 0 || F.format != FormatSparse {
		F.ConvertTo(FormatSparse)
	}
	P.ConvertTo(FormatBitmap)
	D.ConvertTo(FormatBitmap)
	if F.ptr[ns] == 0 {
		C.Clear()
		return 0, nil
	}
	pb, pv, db, dv := P.b, P.val, D.b, D.val
	k0 := sort.SearchInts(F.ptr, 1) - 1 // the row of F's first entry
	d := dv[k0*n+F.idx[0]]              // the frontier's depth
	if pull {
		// Each piece sums its own vertices' cells of a fresh bitmap C,
		// reading only P and D; P and D take C's entries once all have read.
		C.store = store[float64]{nr: ns, nc: n, format: FormatBitmap, b: make([]int8, ns*n), val: make([]float64, ns*n)}
		parallel.Blocks(n, ptr, func(lo, hi int) struct{} {
			for j := lo; j < hi; j++ {
				for base := 0; base < ns*n; base += n {
					if pb[base+j] != 0 {
						continue
					}
					for _, i := range idx[ptr[j]:ptr[j+1]] {
						if c := base + i; pb[c] != 0 && dv[c] == d {
							C.b[base+j], C.val[base+j] = 1, C.val[base+j]+pv[c]
						}
					}
				}
			}
			return struct{}{}
		})
		C.bitmapToSparse()
		for k := 0; k < ns; k++ {
			for p := C.ptr[k]; p < C.ptr[k+1]; p++ {
				c := k*n + C.idx[p]
				pb[c], pv[c], db[c], dv[c] = 1, C.val[p], 1, d+1
			}
		}
	} else {
		rows, found := make([]int, ns+1), make([]int, 0, F.ptr[ns])
		for k := 0; k < ns; k++ {
			pbk, pvk, dbk, dvk := pb[k*n:(k+1)*n], pv[k*n:(k+1)*n], db[k*n:(k+1)*n], dv[k*n:(k+1)*n]
			for p := F.ptr[k]; p < F.ptr[k+1]; p++ {
				i, x := F.idx[p], F.val[p]
				for _, j := range idx[ptr[i]:ptr[i+1]] {
					if pbk[j] == 0 {
						pbk[j], pvk[j], dbk[j], dvk[j] = 1, x, 1, d+1
						found = append(found, j)
					} else if dvk[j] == d+1 {
						pvk[j] += x
					}
				}
			}
			rows[k+1] = len(found)
		}
		val := make([]float64, len(found))
		for k := 0; k < ns; k++ {
			for p := rows[k]; p < rows[k+1]; p++ {
				val[p] = pv[k*n+found[p]]
			}
		}
		C.store = store[float64]{nr: ns, nc: n, ptr: rows, idx: found, val: val}
		if len(found) > 1 {
			C.markJumbled()
		}
	}
	nf := C.ptr[ns]
	P.nvalsB += nf
	D.nvalsB += nf
	return nf, nil
}

// FusedPlusFirstBackStep is one backward level of batched Brandes BC
// (Algorithm 3's lines 14-18) as a single pull: for each entry (k, v) of
// F, at depth d = D(k, v),
//
//	B(k, v) += P(k, v) · Σ_{w ∈ A(v,:), D(k, w) = d+1} B(k, w) / P(k, w)
//
// P and D are what FusedPlusFirstStep left, F one of its frontiers, and B
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
	ptr, idx := sparsePattern(A)
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
			for _, w := range idx[ptr[v]:ptr[v+1]] {
				if c := base + w; dv[c] == next && pb[c] != 0 {
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
		weight[p+1] = weight[p] + ptr[v+1] - ptr[v]
	}
	parallel.Blocks(nnz, weight, step)
	return nil
}

// sparsePattern is the CSR pattern of a finished A: its own arrays, or a
// sparse copy's when A is bitmap or full.
func sparsePattern[T Value](A *Matrix[T]) (ptr, idx []int) {
	A.Wait()
	if A.format != FormatSparse {
		A = A.Dup()
		A.ConvertTo(FormatSparse)
	}
	return A.ptr, A.idx
}
