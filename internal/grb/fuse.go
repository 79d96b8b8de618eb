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
