package grb

// Element-wise operations (paper Table I): eWiseAdd applies op on the set
// union of the input structures; eWiseMult on the set intersection.

// EWiseAdd computes C⟨M⟩⊙= A op∪ B. Where only one operand has an entry,
// that entry passes through unchanged (the "add" structure semantics).
func EWiseAdd[TA, TB, TC Value](C *Matrix[TC], mask Mask, accum func(TC, TC) TC,
	op addOpPair[TA, TB, TC], A *Matrix[TA], B *Matrix[TB], desc *Descriptor) error {

	d := descOf(desc)
	A = oriented(A, d.TranA)
	B = oriented(B, d.TranB)
	ar, ac := A.Dims()
	br, bc := B.Dims()
	if ar != br || ac != bc {
		return dimErr("EWiseAdd", "A "+itoa(ar)+"x"+itoa(ac), "B "+itoa(br)+"x"+itoa(bc))
	}
	cr, cc := C.Dims()
	if cr != ar || cc != ac {
		return dimErr("EWiseAdd", "C "+itoa(cr)+"x"+itoa(cc), itoa(ar)+"x"+itoa(ac))
	}
	if err := mask.check(cr, cc, "EWiseAdd"); err != nil {
		return err
	}
	A.Wait()
	B.Wait()
	// C = C op∪ B with a sparse B (so B is not C) into a bitmap/full C, no
	// mask, no accumulator: C op= B, folded in at B's entries.
	if f, ok := any(op.f).(func(TC, TC) TC); ok && f != nil && any(A) == any(C) && !mask.Exists() &&
		accum == nil && C.format != FormatSparse && B.format == FormatSparse {
		maskAccumMatrix(C, NoMask, f, any(B).(*Matrix[TC]), false, false, nil)
		return nil
	}
	t := ewiseMatrix(op.both, op.left, op.right, A, B, mask)
	maskAccumMatrix(C, mask, accum, t, d.Replace, true, nil)
	return nil
}

// EWiseMult computes C⟨M⟩⊙= A op∩ B: entries present in both inputs.
func EWiseMult[TA, TB, TC Value](C *Matrix[TC], mask Mask, accum func(TC, TC) TC,
	op BinaryOp[TA, TB, TC], A *Matrix[TA], B *Matrix[TB], desc *Descriptor) error {

	d := descOf(desc)
	A = oriented(A, d.TranA)
	B = oriented(B, d.TranB)
	ar, ac := A.Dims()
	br, bc := B.Dims()
	if ar != br || ac != bc {
		return dimErr("EWiseMult", "A "+itoa(ar)+"x"+itoa(ac), "B "+itoa(br)+"x"+itoa(bc))
	}
	cr, cc := C.Dims()
	if cr != ar || cc != ac {
		return dimErr("EWiseMult", "C "+itoa(cr)+"x"+itoa(cc), itoa(ar)+"x"+itoa(ac))
	}
	if err := mask.check(cr, cc, "EWiseMult"); err != nil {
		return err
	}
	A.Wait()
	B.Wait()
	t := ewiseMatrix(bothOf(op), nil, nil, A, B, mask)
	maskAccumMatrix(C, mask, accum, t, d.Replace, true, nil)
	return nil
}

// addOpPair wraps a same-domain binary op for eWiseAdd, where pass-through
// of single-sided entries requires TA, TB and TC to be inter-assignable.
// AddOp builds it for the common TA=TB=TC case of the C API.
type addOpPair[TA, TB, TC Value] struct {
	both  func(i, j int, ax TA, bx TB) TC
	left  func(i, j int, ax TA) TC
	right func(i, j int, bx TB) TC
	f     func(TA, TB) TC // both without the position; nil for a positional operator
}

// AddOp adapts a same-typed binary operator for use with EWiseAdd.
func AddOp[T Value](op BinaryOp[T, T, T]) addOpPair[T, T, T] {
	return addOpPair[T, T, T]{
		both:  bothOf(op),
		left:  func(_, _ int, a T) T { return a },
		right: func(_, _ int, b T) T { return b },
		f:     op.F,
	}
}

// bothOf evaluates op where both operands hold an entry.
func bothOf[TA, TB, TC Value](op BinaryOp[TA, TB, TC]) func(i, j int, ax TA, bx TB) TC {
	if op.PosF != nil {
		return func(i, j int, _ TA, _ TB) TC { return op.PosF(i, 0, j) }
	}
	return func(_, _ int, ax TA, bx TB) TC { return op.F(ax, bx) }
}

// ewiseMatrix combines A and B row by row: an intersection when left and
// right are nil, otherwise a union with pass-through. Positions the mask
// disallows are skipped (mask pre-restriction). Each row is driven by its
// sparsest participant:
//
//	sparse ∘ sparse                      two-pointer merge of the sorted rows
//	sparse ∩ bitmap/full                 walk the sparse row, probe the other
//	bitmap/full ∩ bitmap/full under a    walk the mask's row, probe both
//	  sparse non-complemented mask
//	anything else (a union with a dense  one pass over the row's positions
//	  side, dense ∩ dense)
func ewiseMatrix[TA, TB, TC Value](
	both func(i, j int, ax TA, bx TB) TC,
	left func(i, j int, ax TA) TC,
	right func(i, j int, bx TB) TC,
	A *Matrix[TA], B *Matrix[TB], mask Mask) *Matrix[TC] {

	nr, nc := A.Dims()
	union := left != nil
	aS, bS := A.format == FormatSparse, B.format == FormatSparse
	denseMaskSrc := !mask.Exists() || mask.src.maskIsDense()
	walkMask := !union && !aS && !bS && mask.enumerable() && !denseMaskSrc
	return buildCSRParallelScoped(nr, nc, nil, func(scope *rowAllowScope) func(i int, emit func(j int, x TC)) {
		return func(i int, emit func(j int, x TC)) {
			base := i * nc
			if walkMask {
				mask.rowIterAllowed(i, func(j int) {
					if p := base + j; A.denseHas(p) && B.denseHas(p) {
						emit(j, both(i, j, A.val[p], B.val[p]))
					}
				})
				return
			}
			scope.load(mask, i, nc, denseMaskSrc)
			var p, pe, q, qe int
			if aS {
				p, pe = A.ptr[i], A.ptr[i+1]
			}
			if bS {
				q, qe = B.ptr[i], B.ptr[i+1]
			}
			switch {
			case aS && bS:
				av, bv := A.val[p:pe], B.val[q:qe]
				unionWalk(A.idx[p:pe], B.idx[q:qe], func(j, pa, qb int) {
					switch {
					case (pa < 0 || qb < 0) && !union || !scope.ok(mask, i, j):
					case qb < 0:
						emit(j, left(i, j, av[pa]))
					case pa < 0:
						emit(j, right(i, j, bv[qb]))
					default:
						emit(j, both(i, j, av[pa], bv[qb]))
					}
				})
			case aS && !union:
				for ; p < pe; p++ {
					if j := A.idx[p]; B.denseHas(base+j) && scope.ok(mask, i, j) {
						emit(j, both(i, j, A.val[p], B.val[base+j]))
					}
				}
			case bS && !union:
				for ; q < qe; q++ {
					if j := B.idx[q]; A.denseHas(base+j) && scope.ok(mask, i, j) {
						emit(j, both(i, j, A.val[base+j], B.val[q]))
					}
				}
			default:
				for j := 0; j < nc; j++ {
					var ax TA
					var bx TB
					aok, bok := false, false
					if aS {
						if p < pe && A.idx[p] == j {
							ax, aok = A.val[p], true
							p++
						}
					} else if A.denseHas(base + j) {
						ax, aok = A.val[base+j], true
					}
					if bS {
						if q < qe && B.idx[q] == j {
							bx, bok = B.val[q], true
							q++
						}
					} else if B.denseHas(base + j) {
						bx, bok = B.val[base+j], true
					}
					if emits := aok && bok || union && (aok || bok); !emits || !scope.ok(mask, i, j) {
						continue
					}
					switch {
					case aok && bok:
						emit(j, both(i, j, ax, bx))
					case aok:
						emit(j, left(i, j, ax))
					default:
						emit(j, right(i, j, bx))
					}
				}
			}
		}
	})
}

// ---------------------------------------------------------------------------
// vector element-wise operations

// EWiseAddV computes w⟨m⟩⊙= u op∪ v.
func EWiseAddV[T Value](w *Vector[T], mask VMask, accum func(T, T) T,
	op BinaryOp[T, T, T], u, v *Vector[T], desc *Descriptor) error {

	if u.Size() != v.Size() || w.Size() != u.Size() {
		return dimErr("EWiseAddV", "lengths "+itoa(w.Size())+","+itoa(u.Size())+","+itoa(v.Size()), "equal lengths")
	}
	if err := mask.check(w.Size(), "EWiseAddV"); err != nil {
		return err
	}
	d := descOf(desc)
	u.Wait()
	v.Wait()
	// w = w op∪ v with a sparse v (so v is not w) is w op= v at v's entries.
	if w == u && accum == nil && op.PosF == nil && v.format == FormatSparse && inPlace(w, mask, op.F, false) {
		scatterEntries(w, v, op.F)
		return nil
	}
	if u.format == FormatSparse && v.format == FormatSparse {
		maskAccumVector(w, mask, accum, mergeSparseVectors(op, u, v, mask), d.Replace, true)
		return nil
	}
	if u.format == FormatFull && v.format == FormatFull {
		return EWiseMultV(w, mask, accum, op, u, v, desc) // the union is the intersection
	}
	// A bitmap/full operand makes the union as dense: by position, into w.
	dst := denseOutput(w, mask, accum, d.Replace)
	uc, vc := cursorOf(u), cursorOf(v)
	for i := 0; i < w.nc; i++ {
		ux, uok := uc.at(i)
		vx, vok := vc.at(i)
		switch {
		case uok && vok && op.PosF != nil:
			dst.put(i, op.PosF(i, 0, 0))
		case uok && vok:
			dst.put(i, op.F(ux, vx))
		case uok:
			dst.put(i, ux)
		case vok:
			dst.put(i, vx)
		default:
			dst.none(i)
		}
	}
	dst.commit()
	return nil
}

// EWiseMultV computes w⟨m⟩⊙= u op∩ v.
func EWiseMultV[TA, TB, TC Value](w *Vector[TC], mask VMask, accum func(TC, TC) TC,
	op BinaryOp[TA, TB, TC], u *Vector[TA], v *Vector[TB], desc *Descriptor) error {

	if u.Size() != v.Size() || w.Size() != u.Size() {
		return dimErr("EWiseMultV", "lengths "+itoa(w.Size())+","+itoa(u.Size())+","+itoa(v.Size()), "equal lengths")
	}
	if err := mask.check(w.Size(), "EWiseMultV"); err != nil {
		return err
	}
	d := descOf(desc)
	u.Wait()
	v.Wait()
	if u.format == FormatSparse || v.format == FormatSparse {
		maskAccumVector(w, mask, accum, ewiseMultVector(op, u, v, mask), d.Replace, true)
		return nil
	}
	dst := denseOutput(w, mask, accum, d.Replace)
	uv, ub, vv, vb := u.val, u.b, v.val, v.b
	if dst.plain && ub == nil && vb == nil && op.PosF == nil {
		for i := range dst.val {
			dst.val[i] = op.F(uv[i], vv[i])
		}
		dst.commit()
		return nil
	}
	for i := range uv {
		switch {
		case ub != nil && ub[i] == 0 || vb != nil && vb[i] == 0:
			dst.none(i)
		case op.PosF != nil:
			dst.put(i, op.PosF(i, 0, 0))
		default:
			dst.put(i, op.F(uv[i], vv[i]))
		}
	}
	dst.commit()
	return nil
}

// mergeSparseVectors is the union u op∪ v of two sparse vectors restricted
// to the mask: the sorted merge.
func mergeSparseVectors[T Value](op BinaryOp[T, T, T], u, v *Vector[T], mask VMask) *Vector[T] {
	t := MustVector[T](u.Size())
	both := bothOf(op)
	allow := mask.allowFor(u.Size(), false)
	unionWalk(u.idx, v.idx, func(i, p, q int) {
		if !allow.ok(i) {
			return
		}
		ux, uok := entryAt(u.val, p)
		vx, vok := entryAt(v.val, q)
		switch {
		case uok && vok:
			ux = both(i, 0, ux, vx)
		case vok:
			ux = vx
		}
		t.idx, t.val = append(t.idx, i), append(t.val, ux)
	})
	t.conform()
	return t
}

// ewiseMultVector is the intersection u op∩ v restricted to the mask when
// an operand is sparse: it is walked, and the other operand and the mask
// are probed at its entries.
func ewiseMultVector[TA, TB, TC Value](op BinaryOp[TA, TB, TC], u *Vector[TA], v *Vector[TB], mask VMask) *Vector[TC] {
	n := u.Size()
	t := MustVector[TC](n)
	both := bothOf(op)
	allow := mask.allowFor(n, false)
	emit := func(i int, ux TA, vx TB) {
		if allow.ok(i) {
			t.idx = append(t.idx, i)
			t.val = append(t.val, both(i, 0, ux, vx))
		}
	}
	switch {
	case u.format == FormatSparse && v.format == FormatSparse:
		p, q := 0, 0
		for p < len(u.idx) && q < len(v.idx) {
			switch {
			case u.idx[p] < v.idx[q]:
				p++
			case v.idx[q] < u.idx[p]:
				q++
			default:
				emit(u.idx[p], u.val[p], v.val[q])
				p++
				q++
			}
		}
	case u.format == FormatSparse:
		for p, i := range u.idx {
			if vx, ok := v.get(0, i); ok {
				emit(i, u.val[p], vx)
			}
		}
	default:
		for q, i := range v.idx {
			if ux, ok := u.get(0, i); ok {
				emit(i, ux, v.val[q])
			}
		}
	}
	t.conform()
	return t
}
