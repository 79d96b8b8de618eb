package grb

import (
	"strconv"

	"lagraph/internal/parallel"
)

// Transpose computes C⟨M⟩⊙= Aᵀ. With desc.TranA the transposes cancel and
// the operation degenerates to a masked copy of A (as in the C API).
func Transpose[T Value](C *Matrix[T], mask Mask, accum func(T, T) T, A *Matrix[T], desc *Descriptor) error {
	d := descOf(desc)
	ar, ac := A.Dims()
	if d.TranA {
		ar, ac = ac, ar
	}
	cr, cc := C.Dims()
	if cr != ac || cc != ar {
		return dimErr("Transpose", "C "+strconv.Itoa(cr)+"x"+strconv.Itoa(cc), strconv.Itoa(ac)+"x"+strconv.Itoa(ar))
	}
	if err := mask.check(cr, cc, "Transpose"); err != nil {
		return err
	}
	A.Wait()
	var t *Matrix[T]
	if d.TranA {
		t = A.Dup()
	} else {
		t = transposeWork(A)
	}
	C.maskAccum(mask, accum, &t.store, d.Replace, false, nil)
	return nil
}

// NewTranspose allocates and returns Aᵀ (a convenience the LAGraph
// property layer uses for G.AT).
func NewTranspose[T Value](A *Matrix[T]) *Matrix[T] { return oriented(A, true) }

// oriented is the operand a call reads: A, or — the descriptor asking for
// the transpose — Aᵀ materialised once, the explicit-transpose strategy
// LAGraph itself uses via G.AT.
func oriented[T Value](A *Matrix[T], tran bool) *Matrix[T] {
	if !tran {
		return A
	}
	A.Wait()
	return transposeWork(A)
}

// transposeWork builds Aᵀ with sorted rows via a counting sort over the
// destination rows. A must be finished.
func transposeWork[T Value](A *Matrix[T]) *Matrix[T] {
	nr, nc := A.Dims()
	t := MustMatrix[T](nc, nr)
	if A.format != FormatSparse {
		t.format, t.val = A.format, make([]T, nr*nc)
		if A.format == FormatBitmap {
			t.b, t.nvalsB = make([]int8, nr*nc), A.nvalsB
		}
		parallel.For(nc, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				for i := 0; i < nr; i++ {
					t.val[j*nr+i] = A.val[i*nc+j]
					if t.b != nil {
						t.b[j*nr+i] = A.b[i*nc+j]
					}
				}
			}
		})
		return t
	}
	nnz := A.ptr[nr]
	counts := make([]int, nc+1)
	for _, j := range A.idx {
		counts[j]++
	}
	parallel.ExclusiveScan(counts)
	t.ptr = counts
	t.idx = make([]int, nnz)
	t.val = make([]T, nnz)
	next := append([]int(nil), counts[:nc]...)
	for i := 0; i < nr; i++ {
		for p := A.ptr[i]; p < A.ptr[i+1]; p++ {
			j := A.idx[p]
			w := next[j]
			next[j]++
			t.idx[w] = i
			t.val[w] = A.val[p]
		}
	}
	return t
}
