package grb

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
