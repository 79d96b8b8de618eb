package grb

import (
	"strconv"

	"lagraph/internal/parallel"
)

// Reductions (paper Table I): row-wise matrix→vector, matrix→scalar and
// vector→scalar, each on a monoid.

// ReduceMatrixToVector computes w⟨m⟩⊙= [⊕_j A(:,j)] — the row-wise
// reduction (with desc.TranA, the column-wise reduction of A).
func ReduceMatrixToVector[T Value](w *Vector[T], mask VMask, accum func(T, T) T,
	mon Monoid[T], A *Matrix[T], desc *Descriptor) error {

	d := descOf(desc)
	A.Wait()
	// A bitmap or full A is reduced by columns where it lies, in row order.
	byCol := d.TranA && A.format != FormatSparse
	A = oriented(A, d.TranA && !byCol)
	n := A.nr
	if byCol {
		n = A.nc
	}
	if w.Size() != n {
		return dimErr("ReduceMatrixToVector", "w length "+strconv.Itoa(w.Size()), "A rows "+strconv.Itoa(n))
	}
	if err := mask.check(1, w.Size(), "ReduceMatrixToVector"); err != nil {
		return err
	}
	wb := w.output(mask, accum, d.Replace, nil, tShape{list: true, cut: true})
	masked := mask.Exists()
	run(wb, nil, 0, func(lo, hi int, o *sink[T]) {
		for i := lo; i < hi; i++ {
			if masked && !o.ok(i) {
				continue
			}
			if x, ok := reduceRow(mon, A, i, byCol); ok {
				o.emit(i, x)
			}
		}
	})
	wb.commit()
	return nil
}

// reduceRow folds row i of A — column i, in row order, when byCol — on the
// monoid; ok is false for an empty one.
func reduceRow[T Value](mon Monoid[T], A *Matrix[T], i int, byCol bool) (T, bool) {
	var acc T
	got := false
	fold := func(_ int, x T) {
		if !got {
			acc, got = x, true
		} else {
			acc = mon.F(acc, x)
		}
	}
	if !byCol {
		A.rowIter(i, fold)
		return acc, got
	}
	for p := i; p < A.nr*A.nc; p += A.nc {
		if A.denseHas(p) {
			fold(0, A.val[p])
		}
	}
	return acc, got
}

// ReduceMatrixToScalar computes s⊙= [⊕_ij A(i,j)].
func ReduceMatrixToScalar[T Value](mon Monoid[T], A *Matrix[T]) T {
	A.Wait()
	nr := A.NRows()
	// Parallel partial folds per row block; a block (or the whole matrix)
	// with no entry contributes nothing, not the identity.
	type partial struct {
		acc T
		got bool
	}
	fold := func(p partial, x T) partial {
		if !p.got {
			return partial{x, true}
		}
		return partial{mon.F(p.acc, x), true}
	}
	parts := parallel.Blocks(nr, nil, func(lo, hi int) partial {
		p := partial{acc: mon.Identity}
		for i := lo; i < hi; i++ {
			if x, ok := reduceRow(mon, A, i, false); ok {
				p = fold(p, x)
			}
		}
		return p
	})
	total := partial{acc: mon.Identity}
	for _, p := range parts {
		if p.got {
			total = fold(total, p.acc)
		}
	}
	return total.acc
}

// ReduceVectorToScalar computes s⊙= [⊕_i u(i)].
func ReduceVectorToScalar[T Value](mon Monoid[T], u *Vector[T]) T {
	u.Wait()
	if u.format == FormatFull {
		return parallelFold(mon, u.val)
	}
	if x, ok := reduceRow(mon, u.asRow(), 0, false); ok {
		return x
	}
	return mon.Identity
}

// parallelFold reduces a dense slice on the monoid.
func parallelFold[T Value](mon Monoid[T], xs []T) T {
	if len(xs) == 0 {
		return mon.Identity
	}
	parts := parallel.Blocks(len(xs), nil, func(lo, hi int) T {
		acc := xs[lo]
		for _, x := range xs[lo+1 : hi] {
			acc = mon.F(acc, x)
		}
		return acc
	})
	acc := parts[0]
	for _, p := range parts[1:] {
		acc = mon.F(acc, p)
	}
	return acc
}
