package grb

// Apply and select (paper Table I): apply evaluates a unary operator on
// every entry; select keeps only entries whose predicate holds, using the
// entry's value and position plus a scalar thunk.

// Apply computes C⟨M⟩⊙= f(A, k).
func Apply[TIn, TOut Value](C *Matrix[TOut], mask Mask, accum func(TOut, TOut) TOut,
	f UnaryOp[TIn, TOut], A *Matrix[TIn], desc *Descriptor) error {

	d := descOf(desc)
	A = oriented(A, d.TranA)
	ar, ac := A.Dims()
	cr, cc := C.Dims()
	if cr != ar || cc != ac {
		return dimErr("Apply", "C "+itoa(cr)+"x"+itoa(cc), itoa(ar)+"x"+itoa(ac))
	}
	if err := mask.check(cr, cc, "Apply"); err != nil {
		return err
	}
	A.Wait()
	denseMaskSrc := !mask.Exists() || mask.src.maskIsDense()
	t := buildCSRParallelScoped(ar, ac, A.rowPtr(), func(scope *rowAllowScope) func(i int, emit func(j int, x TOut)) {
		return func(i int, emit func(j int, x TOut)) {
			scope.load(mask, i, ac, denseMaskSrc)
			aRowIter(A, i, func(j int, x TIn) {
				if !scope.ok(mask, i, j) {
					return
				}
				if f.PosF != nil {
					emit(j, f.PosF(x, i, j))
				} else {
					emit(j, f.F(x))
				}
			})
		}
	})
	maskAccumMatrix(C, mask, accum, t, d.Replace, true, nil)
	return nil
}

// Select computes C⟨M⟩⊙= A⟨f(A, k)⟩: entries failing the predicate are
// dropped.
func Select[T Value](C *Matrix[T], mask Mask, accum func(T, T) T,
	f IndexUnaryOp[T], A *Matrix[T], thunk T, desc *Descriptor) error {

	d := descOf(desc)
	A = oriented(A, d.TranA)
	ar, ac := A.Dims()
	cr, cc := C.Dims()
	if cr != ar || cc != ac {
		return dimErr("Select", "C "+itoa(cr)+"x"+itoa(cc), itoa(ar)+"x"+itoa(ac))
	}
	if err := mask.check(cr, cc, "Select"); err != nil {
		return err
	}
	A.Wait()
	denseMaskSrc := !mask.Exists() || mask.src.maskIsDense()
	t := buildCSRParallelScoped(ar, ac, A.rowPtr(), func(scope *rowAllowScope) func(i int, emit func(j int, x T)) {
		return func(i int, emit func(j int, x T)) {
			scope.load(mask, i, ac, denseMaskSrc)
			aRowIter(A, i, func(j int, x T) {
				if scope.ok(mask, i, j) && f.F(x, i, j, thunk) {
					emit(j, x)
				}
			})
		}
	})
	maskAccumMatrix(C, mask, accum, t, d.Replace, true, nil)
	return nil
}

// ApplyV computes w⟨m⟩⊙= f(u, k).
func ApplyV[TIn, TOut Value](w *Vector[TOut], mask VMask, accum func(TOut, TOut) TOut,
	f UnaryOp[TIn, TOut], u *Vector[TIn], desc *Descriptor) error {

	if w.Size() != u.Size() {
		return dimErr("ApplyV", "w length "+itoa(w.Size()), "u length "+itoa(u.Size()))
	}
	if err := mask.check(w.Size(), "ApplyV"); err != nil {
		return err
	}
	d := descOf(desc)
	u.Wait()
	apply := func(i int, x TIn) TOut {
		if f.PosF != nil {
			return f.PosF(x, i, 0)
		}
		return f.F(x)
	}
	if u.format == FormatSparse {
		allow := mask.allowFor(u.nc, false)
		t := MustVector[TOut](u.nc)
		for p, i := range u.idx {
			if allow.ok(i) {
				t.idx = append(t.idx, i)
				t.val = append(t.val, apply(i, u.val[p]))
			}
		}
		t.conform()
		maskAccumVector(w, mask, accum, t, d.Replace, true)
		return nil
	}
	dst := denseOutput(w, mask, accum, d.Replace)
	uv, ub := u.val, u.b
	if dst.plain && ub == nil && f.PosF == nil {
		for i, x := range uv {
			dst.val[i] = f.F(x)
		}
		dst.commit()
		return nil
	}
	for i, x := range uv {
		if ub != nil && ub[i] == 0 {
			dst.none(i)
		} else {
			dst.put(i, apply(i, x))
		}
	}
	dst.commit()
	return nil
}

// SelectV computes w⟨m⟩⊙= u⟨f(u, k)⟩.
func SelectV[T Value](w *Vector[T], mask VMask, accum func(T, T) T,
	f IndexUnaryOp[T], u *Vector[T], thunk T, desc *Descriptor) error {

	if w.Size() != u.Size() {
		return dimErr("SelectV", "w length "+itoa(w.Size()), "u length "+itoa(u.Size()))
	}
	if err := mask.check(w.Size(), "SelectV"); err != nil {
		return err
	}
	d := descOf(desc)
	u.Wait()
	// A selection is at most as dense as u, and a thin one (SSSP's bucket
	// out of a full t) is the common case: it is collected as a list unless
	// it lands in a w that is already bitmap/full.
	if u.format == FormatSparse || w.format == FormatSparse {
		allow := mask.allowFor(u.nc, u.format != FormatSparse)
		defer allow.release()
		t := MustVector[T](u.nc)
		u.Iterate(func(i int, x T) {
			if allow.ok(i) && f.F(x, i, 0, thunk) {
				t.idx = append(t.idx, i)
				t.val = append(t.val, x)
			}
		})
		t.conform()
		maskAccumVector(w, mask, accum, t, d.Replace, true)
		return nil
	}
	dst := denseOutput(w, mask, accum, d.Replace)
	uv, ub := u.val, u.b
	for i, x := range uv {
		if (ub == nil || ub[i] != 0) && f.F(x, i, 0, thunk) {
			dst.put(i, x)
		} else {
			dst.none(i)
		}
	}
	dst.commit()
	return nil
}
