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

// Kronecker computes C⟨M⟩⊙= A ⊗kron B on a semiring's multiplicative
// operator: C((iA·rB)+iB, (jA·cB)+jB) = A(iA,jA) ⊗ B(iB,jB). This is the
// GrB_kronecker operation; RMAT generators are its repeated self-product.
func Kronecker[TA, TB, TC Value](C *Matrix[TC], mask Mask, accum func(TC, TC) TC,
	op BinaryOp[TA, TB, TC], A *Matrix[TA], B *Matrix[TB], desc *Descriptor) error {

	d := descOf(desc)
	A = oriented(A, d.TranA)
	B = oriented(B, d.TranB)
	ar, ac := A.Dims()
	br, bc := B.Dims()
	cr, cc := C.Dims()
	if cr != ar*br || cc != ac*bc {
		return dimErr("Kronecker", "C "+itoa(cr)+"x"+itoa(cc), itoa(ar*br)+"x"+itoa(ac*bc))
	}
	if err := mask.check(cr, cc, "Kronecker"); err != nil {
		return err
	}
	if op.PosF != nil {
		return errf(NotImplemented, "Kronecker: positional operators are not defined for kron")
	}
	A.Wait()
	B.Wait()
	denseMaskSrc := !mask.Exists() || mask.src.maskIsDense()
	t := buildCSRParallelScoped(cr, cc, func(scope *rowAllowScope) func(i int, emit func(j int, x TC)) {
		return func(i int, emit func(j int, x TC)) {
			scope.load(mask, i, cc, denseMaskSrc)
			iA, iB := i/br, i%br
			aRowIter(A, iA, func(jA int, ax TA) {
				aRowIter(B, iB, func(jB int, bx TB) {
					j := jA*bc + jB
					if scope.ok(mask, i, j) {
						emit(j, op.F(ax, bx))
					}
				})
			})
		}
	})
	maskAccumMatrix(C, mask, accum, t, d.Replace, true, nil)
	return nil
}

// MatrixDiag builds an n×n matrix with vector v on the k-th diagonal
// (GxB_Matrix_diag).
func MatrixDiag[T Value](v *Vector[T], k int) (*Matrix[T], error) {
	n := v.Size() + max(k, -k)
	m, err := NewMatrix[T](n, n)
	if err != nil {
		return nil, err
	}
	v.Iterate(func(i int, x T) {
		r, c := i, i+k
		if k < 0 {
			r, c = i-k, i
		}
		lagSet(m.SetElement(x, r, c))
	})
	m.Wait()
	return m, nil
}

// VectorDiag extracts the k-th diagonal of a matrix into a vector
// (GxB_Vector_diag).
func VectorDiag[T Value](A *Matrix[T], k int) (*Vector[T], error) {
	nr, nc := A.Dims()
	var n int
	if k >= 0 {
		n = min(nr, nc-k)
	} else {
		n = min(nr+k, nc)
	}
	if n < 0 {
		n = 0
	}
	v, err := NewVector[T](n)
	if err != nil {
		return nil, err
	}
	A.Wait()
	for i := 0; i < n; i++ {
		r, c := i, i+k
		if k < 0 {
			r, c = i-k, i
		}
		if x, err := A.ExtractElement(r, c); err == nil {
			lagSet(v.SetElement(x, i))
		}
	}
	v.Wait()
	return v, nil
}

// lagSet panics on impossible internal errors from pre-validated indices.
func lagSet(err error) {
	if err != nil {
		panic(err)
	}
}
