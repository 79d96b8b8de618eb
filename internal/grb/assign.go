package grb

import "cmp"

// Assign operations (paper Table I): project values into a region of the
// output selected by index arrays, under mask/accumulator control. The
// semantics follow GrB_assign: the mask spans the whole output, the region
// is the cross product of the index arrays, entries outside the region are
// untouched by the assignment itself, and replace semantics delete every
// entry outside the mask.
//
// Duplicate indices are permitted when an accumulator is supplied and are
// combined in index order — this is what FastSV's "hooking" scatter
// f(x) min= mngf needs; with min the result is order-independent.

// AssignVector computes w⟨m⟩(indices)⊙= u, where u(k) lands at
// indices[k] (u's length must equal the region size).
func AssignVector[T Value](w *Vector[T], mask VMask, accum func(T, T) T,
	u *Vector[T], indices []int, desc *Descriptor) error {

	n := w.Size()
	regionN := len(indices)
	if isAll(indices) {
		regionN = n
	}
	if u.Size() != regionN {
		return dimErr("AssignVector", "u length "+itoa(u.Size()), "region size "+itoa(regionN))
	}
	if err := checkIndices("AssignVector", "index", indices, n); err != nil {
		return err
	}
	if err := mask.check(n, "AssignVector"); err != nil {
		return err
	}
	d := descOf(desc)
	w.Wait()
	u.Wait()

	if isAll(indices) {
		// p⟨s(q)⟩ = q — the mask is u itself, structural, merge semantics,
		// no accumulator: only insertions and overwrites, at u's entries.
		if accum == nil && !d.Replace && mask.Exists() && !mask.Comp && mask.Structural && sameVectorSource(mask.src, u) {
			scatterEntries(w, u, nil)
			return nil
		}
		// Over the whole range the region is every position, so this is
		// the common w⟨m⟩ ⊙= t with t = u (a sparse u copied, because w may
		// come to own t's arrays).
		if u.format == FormatSparse {
			maskAccumVector(w, mask, accum, u.Dup(), d.Replace, false)
		} else {
			mergeByPosition(w, mask, accum, u, d.Replace)
		}
		return nil
	}

	// f(x) ⊙= u, the scatter: u(k) is folded into w at indices[k], in list
	// order, duplicates included.
	if inPlace(w, mask, accum, false, u) {
		uc := cursorOf(u)
		for k, i := range indices {
			if x, ok := uc.at(k); ok {
				foldAt(w.val, w.b, &w.nvalsB, i, x, accum)
			}
		}
		w.conform()
		return nil
	}

	// Stage the assignment region densely: reg[i] = 1 if i is in the
	// region, and the value arriving there (duplicates combined).
	reg := make([]int8, n)
	regHas := make([]int8, n)
	regVal := make([]T, n)
	for k, i := range indices {
		reg[i] = 1
		x, ok := u.get(0, k)
		if !ok {
			continue
		}
		if regHas[i] != 0 && accum != nil {
			x = accum(regVal[i], x)
		}
		regHas[i], regVal[i] = 1, x
	}
	assignStaged(w, mask, accum, d.Replace, reg, regHas, regVal)
	return nil
}

// AssignVectorScalar computes w⟨m⟩(indices)⊙= s: every position of the
// region receives the scalar.
func AssignVectorScalar[T Value](w *Vector[T], mask VMask, accum func(T, T) T,
	s T, indices []int, desc *Descriptor) error {

	n := w.Size()
	if err := checkIndices("AssignVectorScalar", "index", indices, n); err != nil {
		return err
	}
	if err := mask.check(n, "AssignVectorScalar"); err != nil {
		return err
	}
	d := descOf(desc)
	w.Wait()

	// w⟨m⟩ ⊙= s over the whole range, merge semantics, with a sparse mask
	// that lists its allowed positions — BFS's level stamp and SSSP's
	// settled set. Only those positions change, and each receives the
	// scalar, so they are folded into w where they land.
	if isAll(indices) && !d.Replace && mask.Exists() && !mask.Comp && !mask.src.maskIsDense() {
		u := MustVector[T](n)
		mask.src.maskRowIter(0, func(i int, tv bool) {
			if mask.selects(tv) {
				u.idx = append(u.idx, i)
				u.val = append(u.val, s)
			}
		})
		scatterEntries(w, u, accum)
		return nil
	}
	// w(:) = s: every position receives the scalar — unmasked and
	// unaccumulated, the idiom PR and SSSP initialise with, w ends full.
	if isAll(indices) {
		dst := denseOutput(w, mask, accum, d.Replace)
		for i := 0; i < n; i++ {
			dst.put(i, s)
		}
		dst.commit()
		return nil
	}

	reg := make([]int8, n)
	regHas := make([]int8, n)
	regVal := make([]T, n)
	for _, i := range indices {
		reg[i], regHas[i], regVal[i] = 1, 1, s
	}
	assignStaged(w, mask, accum, d.Replace, reg, regHas, regVal)
	return nil
}

// assignStaged merges a staged region into w, where it lies:
//
//	i in region, value arrived : put  (allowed: accum(w,u) / u)
//	i in region, no value      : none (allowed: accum==nil ? delete : keep)
//	i not in region            : keep (not allowed: replace ? delete : keep)
func assignStaged[T Value](w *Vector[T], mask VMask, accum func(T, T) T, replace bool,
	reg, regHas []int8, regVal []T) {

	if w.format == FormatSparse {
		w.sparseToBitmap() // positions outside the region keep what w holds
	}
	dst := denseOutput(w, mask, accum, replace)
	for i := range reg {
		switch {
		case reg[i] == 0:
			dst.keep(i)
		case regHas[i] != 0:
			dst.put(i, regVal[i])
		default:
			dst.none(i)
		}
	}
	dst.commit()
}

// sameVectorSource reports whether the mask's source is the vector u.
func sameVectorSource[T Value](src maskSource, u *Vector[T]) bool {
	v, ok := src.(*Vector[T])
	return ok && v == u
}

// scatterEntries folds every entry of u into w in place of a rebuild:
// w(i) = accum(w(i), u(i)) where w holds an entry and an accumulator is
// given, u(i) otherwise. It is the whole of an unmasked w ⊙= u, and of
// w = w op∪ u; u is not w's storage.
func scatterEntries[T Value](w, u *Vector[T], accum func(T, T) T) {
	if w.format == FormatSparse && u.format != FormatSparse {
		w.sparseToBitmap() // the result is at least as dense as u
	}
	if w.format != FormatSparse {
		u.Iterate(func(i int, x T) { foldAt(w.val, w.b, &w.nvalsB, i, x, accum) })
		w.conform()
		return
	}
	// Both sparse: the sorted merge, u's entry winning without an accumulator.
	if accum == nil {
		accum = func(_, x T) T { return x }
	}
	maskAccumVector(w, NoVMask, accum, u, false, false)
}

// AssignMatrixScalar computes C⟨M⟩(rows, cols)⊙= s.
func AssignMatrixScalar[T Value](C *Matrix[T], mask Mask, accum func(T, T) T,
	s T, rows, cols []int, desc *Descriptor) error {

	nr, nc := C.Dims()
	region, err := checkRegion(nr, nc, mask, rows, cols, "AssignMatrixScalar")
	if err != nil {
		return err
	}
	var t *Matrix[T]
	if region.fn == nil && !mask.Exists() {
		// C(:) ⊙= s: t holds the scalar everywhere (BC's B(:) = 1).
		t = &Matrix[T]{store[T]{nr: nr, nc: nc, format: FormatFull, val: make([]T, nr*nc)}}
		if truthy(s) {
			for p := range t.val {
				t.val[p] = s
			}
		}
	} else {
		denseMaskSrc := !mask.Exists() || mask.src.maskIsDense()
		t = buildCSRParallelScoped(nr, nc, nil, func(scope *rowAllowScope) func(i int, emit func(j int, x T)) {
			return func(i int, emit func(j int, x T)) {
				if region.inRow[i] == 0 {
					return
				}
				scope.load(mask, i, nc, denseMaskSrc)
				for _, j := range region.cols {
					if scope.ok(mask, i, j) {
						emit(j, s)
					}
				}
			}
		})
	}
	maskAccumMatrix(C, mask, accum, t, descOf(desc).Replace, true, region.fn)
	return nil
}

// matrixRegion is the rows × cols region of a matrix assign: membership per
// row and per column, the columns ascending without repeats, and the
// position predicate maskAccumMatrix takes — nil when the region is all of C.
type matrixRegion struct {
	inRow, inCol []int8
	cols         []int
	fn           func(i, j int) bool
}

// checkRegion validates the index lists and the mask of an assign into an
// nr×nc matrix and marks the region.
func checkRegion(nr, nc int, mask Mask, rows, cols []int, op string) (matrixRegion, error) {
	if err := cmp.Or(checkIndices(op, "row", rows, nr), checkIndices(op, "col", cols, nc), mask.check(nr, nc, op)); err != nil {
		return matrixRegion{}, err
	}
	mark := func(list []int, n int) []int8 {
		in := make([]int8, n)
		for _, i := range list {
			in[i] = 1
		}
		if isAll(list) {
			for i := range in {
				in[i] = 1
			}
		}
		return in
	}
	reg := matrixRegion{inRow: mark(rows, nr), inCol: mark(cols, nc)}
	for j, in := range reg.inCol {
		if in != 0 {
			reg.cols = append(reg.cols, j)
		}
	}
	if !isAll(rows) || !isAll(cols) {
		reg.fn = func(i, j int) bool { return reg.inRow[i] != 0 && reg.inCol[j] != 0 }
	}
	return reg, nil
}

// checkIndices reports the first index of list outside [0, n).
func checkIndices(op, what string, list []int, n int) error {
	for _, i := range list {
		if i < 0 || i >= n {
			return errf(IndexOutOfBounds, "%s: %s %d outside %d", op, what, i, n)
		}
	}
	return nil
}
