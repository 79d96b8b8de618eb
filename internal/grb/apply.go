package grb

import (
	"cmp"
	"strconv"
)

// Apply and select (paper Table I): apply evaluates a unary operator on
// every entry; select keeps only entries whose predicate holds, using the
// entry's value and position plus a scalar thunk. The vector forms are
// the same bodies on the one row a vector is stored as; col tells a
// positional operator that it sees a vector, whose entry j lies at (j, 0).

// Apply computes C⟨M⟩⊙= f(A, k).
func Apply[TIn, TOut Value](C *Matrix[TOut], mask Mask, accum func(TOut, TOut) TOut,
	f UnaryOp[TIn, TOut], A *Matrix[TIn], desc *Descriptor) error {

	d := descOf(desc)
	return apply(C, mask, accum, f, oriented(A, d.TranA), d.Replace, false, "Apply")
}

// ApplyV computes w⟨m⟩⊙= f(u, k).
func ApplyV[TIn, TOut Value](w *Vector[TOut], mask VMask, accum func(TOut, TOut) TOut,
	f UnaryOp[TIn, TOut], u *Vector[TIn], desc *Descriptor) error {

	return apply(w.asRow(), mask, accum, f, u.asRow(), descOf(desc).Replace, true, "ApplyV")
}

func apply[TIn, TOut Value](C *Matrix[TOut], mask Mask, accum func(TOut, TOut) TOut,
	f UnaryOp[TIn, TOut], A *Matrix[TIn], replace, col bool, op string) error {

	if err := cmp.Or(sameShape(op, C.nr, C.nc, A.nr, A.nc), mask.check(C.nr, C.nc, op)); err != nil {
		return err
	}
	A.Wait()
	// A structural mask that is A itself allows exactly A's entries: T
	// covers it (BFS's p⟨s(q)⟩ = q), and A's entries need no lookup.
	covers := mask.Structural && !mask.Comp && isSource(mask, &A.store)
	walk := A.format != FormatSparse && mask.walkable() && !covers
	wb := C.output(mask, accum, replace, nil, tShape{dense: A.format != FormatSparse && !walk && !covers, full: A.format == FormatFull, covers: covers})
	if wb.plain && A.format == FormatFull && f.PosF == nil {
		cv, g := C.val, f.F
		for p, x := range A.val {
			cv[p] = g(x)
		}
	} else {
		masked := mask.Exists() && !covers
		run(wb, A.rowPtr(), sparseNVals(&A.store), func(lo, hi int, o *sink[TOut]) {
			for i := lo; i < hi; i++ {
				o.open(i)
				A.entries(i, mask, walk, func(j int, x TIn) {
					switch {
					case masked && !o.ok(j):
					case f.PosF != nil:
						pi, pj := at(i, j, col)
						o.emit(j, f.PosF(x, pi, pj))
					default:
						o.emit(j, f.F(x))
					}
				})
			}
		})
	}
	wb.commit()
	return nil
}

// Select computes C⟨M⟩⊙= A⟨f(A, k)⟩: entries failing the predicate are
// dropped.
func Select[T Value](C *Matrix[T], mask Mask, accum func(T, T) T,
	f IndexUnaryOp[T], A *Matrix[T], thunk T, desc *Descriptor) error {

	d := descOf(desc)
	return selectRows(C, mask, accum, f, oriented(A, d.TranA), thunk, d.Replace, false, "Select")
}

// SelectV computes w⟨m⟩⊙= u⟨f(u, k)⟩.
func SelectV[T Value](w *Vector[T], mask VMask, accum func(T, T) T,
	f IndexUnaryOp[T], u *Vector[T], thunk T, desc *Descriptor) error {

	return selectRows(w.asRow(), mask, accum, f, u.asRow(), thunk, descOf(desc).Replace, true, "SelectV")
}

func selectRows[T Value](C *Matrix[T], mask Mask, accum func(T, T) T,
	f IndexUnaryOp[T], A *Matrix[T], thunk T, replace, col bool, op string) error {

	if err := cmp.Or(sameShape(op, C.nr, C.nc, A.nr, A.nc), mask.check(C.nr, C.nc, op)); err != nil {
		return err
	}
	A.Wait()
	// A selection is at most as dense as A, and a thin one (Algorithm 5's
	// bucket out of t) is the common case: it is collected as a list
	// unless it lands in a C that is already bitmap/full.
	walk := A.format != FormatSparse && mask.walkable()
	wb := C.output(mask, accum, replace, nil, tShape{dense: A.format != FormatSparse && C.format != FormatSparse && !walk})
	masked := mask.Exists()
	run(wb, A.rowPtr(), sparseNVals(&A.store), func(lo, hi int, o *sink[T]) {
		for i := lo; i < hi; i++ {
			o.open(i)
			A.entries(i, mask, walk, func(j int, x T) {
				if pi, pj := at(i, j, col); (!masked || o.ok(j)) && f.F(x, pi, pj, thunk) {
					o.emit(j, x)
				}
			})
		}
	})
	wb.commit()
	return nil
}

// at is the position an operator sees for entry (i, j) of a store: a
// vector's entry j, of its one row, lies at (j, 0).
func at(i, j int, col bool) (int, int) {
	if col {
		return j, i
	}
	return i, j
}

// isSource reports whether s is the mask's source.
func isSource[T Value](mk Mask, s *store[T]) bool {
	switch m := mk.src.(type) {
	case *Matrix[T]:
		return &m.store == s
	case *Vector[T]:
		return &m.store == s
	}
	return false
}

// sameShape reports an output of another shape than the operation's.
func sameShape(op string, cr, cc, ar, ac int) error {
	if cr != ar || cc != ac {
		return dimErr(op, "C "+strconv.Itoa(cr)+"x"+strconv.Itoa(cc), strconv.Itoa(ar)+"x"+strconv.Itoa(ac))
	}
	return nil
}

// sparseNVals is a sparse store's entry count, the bound of a result
// built from its entries; 0 for bitmap/full, whose result may be thin.
func sparseNVals[T Value](s *store[T]) int {
	if s.format != FormatSparse {
		return 0
	}
	return s.ptr[s.nr]
}
