package grb

// VxM computes w⟨m⟩⊙= uᵀ ⊕.⊗ A — the push direction (paper §IV-A): it
// starts from the entries of u (the frontier held as a list) and scatters
// along the rows of A. desc.TranA multiplies by Aᵀ instead, which is
// executed as the pull kernel on the transposed orientation.
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
		return dimErr("VxM", "u length "+itoa(u.Size()), "A rows "+itoa(an))
	}
	if w.Size() != ac {
		return dimErr("VxM", "w length "+itoa(w.Size()), "A cols "+itoa(ac))
	}
	if err := mask.check(1, ac, "VxM"); err != nil {
		return err
	}
	u.Wait()
	A.Wait()
	w.maskAccum(mask, accum, &pushKernel(s, u, A, mask).store, d.Replace, true, nil)
	return nil
}

// MxV computes w⟨m⟩⊙= A ⊕.⊗ u — the pull direction: each output element
// w(i) reduces the intersection of row i of A with u, which is held in a
// dense (bitmap/full) view. desc.TranA multiplies by Aᵀ, executed as push.
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
		return dimErr("MxV", "u length "+itoa(u.Size()), "A cols "+itoa(ac))
	}
	if w.Size() != ar {
		return dimErr("MxV", "w length "+itoa(w.Size()), "A rows "+itoa(ar))
	}
	if err := mask.check(1, ar, "MxV"); err != nil {
		return err
	}
	u.Wait()
	A.Wait()
	if !tryPullFast(w, mask, accum, s, A, u) {
		w.maskAccum(mask, accum, &pullKernel(s, A, u, mask).store, d.Replace, true, nil)
	}
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

// pushKernel: t(j) = ⊕ over entries u(k) with A(k,j) present of u(k)⊗A(k,j),
// the saxpy row of u as a one-row matrix. The mask pre-restricts which t(j)
// are computed. Sequential scatter: the push direction is used with small
// frontiers, where fork cost dominates.
func pushKernel[TA, TB, TC Value](s Semiring[TA, TB, TC], u *Vector[TA], A *Matrix[TB], mask Mask) *Vector[TC] {
	n := A.NCols()
	var allowed func(j int) bool
	if mask.Exists() {
		a := mask.allowFor(n, u.format != FormatSparse)
		a.load(0)
		defer a.release()
		allowed = func(j int) bool { return a.ok(0, j) }
	}
	acc := getSPA[TC](n)
	defer putSPA(acc)
	saxpyRow(&s, u.asRow(), 0, A, allowed, acc)
	t := MustVector[TC](n)
	t.idx = append([]int(nil), acc.touched...)
	t.val = make([]TC, len(t.idx))
	for p, j := range t.idx {
		t.val[p] = acc.val[j]
	}
	if len(t.idx) > 1 {
		t.markJumbled()
	}
	t.conform()
	return t
}

// pullKernel: t(i) = ⊕ over k in row i of A with u(k) present of
// A(i,k)⊗u(k) — the dot of row i with u as a one-row matrix. Rows are
// independent, so the kernel is row-parallel. The any monoid exits a row at
// the first hit — the linear-algebra form of GAP's early-exit bottom-up BFS
// step.
func pullKernel[TA, TB, TC Value](s Semiring[TA, TB, TC], A *Matrix[TA], u *Vector[TB], mask Mask) *Vector[TC] {
	n := A.NRows()
	a := mask.allowFor(n, true)
	a.load(0)
	defer a.release()
	row := u.asRow()
	if u.format == FormatSparse {
		// Pull visits every row anyway: a sparse u is read through a bitmap
		// view scattered into pooled arrays.
		vals, has := getSPA[TB](u.nc), getSlab(u.nc)
		defer func() {
			for _, k := range u.idx {
				(*has)[k] = 0
			}
			putSlab(has)
			putSPA(vals)
		}()
		for p, k := range u.idx {
			(*has)[k], vals.val[k] = 1, u.val[p]
		}
		row = &Matrix[TB]{store[TB]{nr: 1, nc: u.nc, format: FormatBitmap, val: vals.val, b: *has}}
	}
	return buildVectorByIndex(n, func(i int) (TC, bool) {
		if !a.ok(0, i) {
			var zero TC
			return zero, false
		}
		return dotRow(&s, A, row, i, 0)
	})
}

// itoa is a tiny strconv.Itoa stand-in keeping error paths allocation-lean.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	p := len(buf)
	for n > 0 {
		p--
		buf[p] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		p--
		buf[p] = '-'
	}
	return string(buf[p:])
}
