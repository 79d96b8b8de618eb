package grb

import "strconv"

// VxM computes w⟨m⟩⊙= uᵀ ⊕.⊗ A — the push direction (paper §IV-A): it
// starts from the entries of u (the frontier held as a list) and scatters
// along the rows of A, the saxpy row of u as a one-row matrix. desc.TranA
// multiplies by Aᵀ instead, which is executed as the pull kernel on the
// transposed orientation.
func VxM[TA, TB, TC Value](w *Vector[TC], mask VMask, accum func(TC, TC) TC,
	s Semiring[TA, TB, TC], u *Vector[TA], A *Matrix[TB], desc *Descriptor) error {

	d := descOf(desc)
	if d.TranA {
		// uᵀAᵀ: each w(i) is a dot of u with row i of A — the pull shape.
		d2 := d
		d2.TranA = false
		return MxV(w, mask, accum, swapSemiring(s), A, u, &d2)
	}
	an, ac := A.Dims()
	if u.Size() != an {
		return dimErr("VxM", "u length "+strconv.Itoa(u.Size()), "A rows "+strconv.Itoa(an))
	}
	if w.Size() != ac {
		return dimErr("VxM", "w length "+strconv.Itoa(w.Size()), "A cols "+strconv.Itoa(ac))
	}
	if err := mask.check(1, ac, "VxM"); err != nil {
		return err
	}
	u.Wait()
	A.Wait()
	// The scatter is MxM's on a one-row A: its entries come out jumbled, so
	// T goes to a temporary; a dense u scatters the mask row.
	saxpyKernel(w.output(mask, accum, d.Replace, nil, tShape{dense: u.format != FormatSparse, alias: true}), s, u.asRow(), A)
	return nil
}

// MxV computes w⟨m⟩⊙= A ⊕.⊗ u — the pull direction: each output element
// w(i) is the dot of row i of A with u as a one-row matrix, held in a dense
// (bitmap/full) view. Positions are independent, so w is computed in
// pieces of columns in parallel. The any monoid exits a row at the first
// hit — the linear-algebra form of GAP's early-exit bottom-up BFS step.
// desc.TranA multiplies by Aᵀ, executed as push.
func MxV[TA, TB, TC Value](w *Vector[TC], mask VMask, accum func(TC, TC) TC,
	s Semiring[TA, TB, TC], A *Matrix[TA], u *Vector[TB], desc *Descriptor) error {

	d := descOf(desc)
	if d.TranA {
		d2 := d
		d2.TranA = false
		return VxM(w, mask, accum, swapSemiring(s), u, A, &d2)
	}
	ar, ac := A.Dims()
	if u.Size() != ac {
		return dimErr("MxV", "u length "+strconv.Itoa(u.Size()), "A cols "+strconv.Itoa(ac))
	}
	if w.Size() != ar {
		return dimErr("MxV", "w length "+strconv.Itoa(w.Size()), "A rows "+strconv.Itoa(ar))
	}
	if err := mask.check(1, ar, "MxV"); err != nil {
		return err
	}
	u.Wait()
	A.Wait()
	// A loop of fastpath.go emits a dense T, dotRow a list; a u that is w
	// (q⟨¬s(p), r⟩ = Aᵀ any.secondi q, a BFS pull as the generic calls
	// write it) goes through a temporary.
	fast := pullsFast(s, A, u)
	wb := w.output(mask, accum, d.Replace, nil, tShape{dense: fast, list: !fast, cut: true, alias: any(u) == any(w)})
	row := u.asRow()
	if u.format == FormatSparse {
		// Pull visits every row anyway: a sparse u is read through a bitmap
		// view scattered into pooled arrays (cleared by u's list as it is
		// now: a u that is w is w's old list).
		vals, has, uIdx := getSlice[TB](u.nc), getSlice[int8](u.nc), u.idx
		defer func() {
			for _, k := range uIdx {
				(*has)[k] = 0
			}
			putSlice(has)
			putSlice(vals)
		}()
		for p, k := range u.idx {
			(*has)[k], (*vals)[k] = 1, u.val[p]
		}
		row = &Matrix[TB]{store[TB]{nr: 1, nc: u.nc, format: FormatBitmap, val: *vals, b: *has}}
	}
	masked := mask.Exists()
	run(wb, nil, 0, func(lo, hi int, o *sink[TC]) {
		if fast {
			pullFast(s.pull, A, u, lo, hi, o)
			return
		}
		s := s // copied: the closure holds it by value, not on the heap
		for i := lo; i < hi; i++ {
			if masked && !o.ok(i) {
				continue
			}
			if x, ok := dotRow(&s, A, row, i, 0, nil); ok {
				o.emit(i, x)
			}
		}
	})
	wb.commit()
	return nil
}

// swapSemiring flips the operand order of the multiplicative operator, so
// a pull can be run as a push of the reversed product (and vice versa).
// Positional operators swap their index roles accordingly.
func swapSemiring[TA, TB, TC Value](s Semiring[TA, TB, TC]) Semiring[TB, TA, TC] {
	out := Semiring[TB, TA, TC]{Name: s.Name + ".swapped", Add: s.Add}
	mul := s.Mul
	out.Mul = BinaryOp[TB, TA, TC]{Name: "swap." + mul.Name}
	if mul.PosF != nil {
		// (a_ik, b_kj) became (b_kj, a_ik): first<->second, i<->j.
		out.Mul.PosF = func(i, k, j int) TC { return mul.PosF(j, k, i) }
	} else {
		out.Mul.F = func(b TB, a TA) TC { return mul.F(a, b) }
	}
	return out
}
