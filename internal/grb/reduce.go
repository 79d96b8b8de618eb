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
	A = oriented(A, d.TranA)
	if w.Size() != A.NRows() {
		return dimErr("ReduceMatrixToVector", "w length "+strconv.Itoa(w.Size()), "A rows "+strconv.Itoa(A.NRows()))
	}
	if err := mask.check(1, w.Size(), "ReduceMatrixToVector"); err != nil {
		return err
	}
	A.Wait()
	wb := w.output(mask, accum, d.Replace, nil, tShape{list: true, cut: true})
	masked := mask.Exists()
	run(wb, nil, 0, func(lo, hi int, o *sink[T]) {
		for i := lo; i < hi; i++ {
			if masked && !o.ok(i) {
				continue
			}
			if x, ok := reduceRow(mon, A, i); ok {
				o.emit(i, x)
			}
		}
	})
	wb.commit()
	return nil
}

// reduceRow folds row i of A on the monoid; ok is false for an empty row.
func reduceRow[T Value](mon Monoid[T], A *Matrix[T], i int) (T, bool) {
	var acc T
	got := false
	A.rowIter(i, func(_ int, x T) {
		if !got {
			acc, got = x, true
		} else {
			acc = mon.F(acc, x)
		}
	})
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
			if x, ok := reduceRow(mon, A, i); ok {
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
	if x, ok := reduceRow(mon, u.asRow(), 0); ok {
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
