package grb

import "sort"

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
	for _, i := range indices {
		if i < 0 || i >= n {
			return errf(IndexOutOfBounds, "AssignVector: index %d outside %d", i, n)
		}
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
				w.fold(i, x, accum)
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
		x, ok := u.get(k)
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
	for _, i := range indices {
		if i < 0 || i >= n {
			return errf(IndexOutOfBounds, "AssignVectorScalar: index %d outside %d", i, n)
		}
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
	if isAll(indices) && !d.Replace && mask.Exists() && !mask.Comp && !mask.src.maskIsDenseV() {
		u := MustVector[T](n)
		mask.src.maskIterV(func(i int, tv bool) {
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
func sameVectorSource[T Value](src vectorMaskSource, u *Vector[T]) bool {
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
		u.Iterate(func(i int, x T) { w.fold(i, x, accum) })
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
	for _, r := range rows {
		if r < 0 || r >= nr {
			return errf(IndexOutOfBounds, "AssignMatrixScalar: row %d outside %d", r, nr)
		}
	}
	for _, c := range cols {
		if c < 0 || c >= nc {
			return errf(IndexOutOfBounds, "AssignMatrixScalar: col %d outside %d", c, nc)
		}
	}
	if err := mask.check(nr, nc, "AssignMatrixScalar"); err != nil {
		return err
	}
	d := descOf(desc)
	C.Wait()

	// Fast path: whole-matrix unmasked, unaccumulated scalar assign makes
	// the matrix full (BC's B(:) = 1).
	if isAll(rows) && isAll(cols) && !mask.Exists() && accum == nil {
		C.ptr, C.idx, C.b = nil, nil, nil
		C.nvalsB = 0
		C.val = make([]T, nr*nc)
		if truthy(s) {
			for i := range C.val {
				C.val[i] = s
			}
		}
		C.format = FormatFull
		return nil
	}

	inRow := make([]int8, nr)
	if isAll(rows) {
		for i := range inRow {
			inRow[i] = 1
		}
	} else {
		for _, r := range rows {
			inRow[r] = 1
		}
	}
	var colList []int
	if isAll(cols) {
		colList = make([]int, nc)
		for j := range colList {
			colList[j] = j
		}
	} else {
		colList = append([]int(nil), cols...)
		sort.Ints(colList)
		// drop duplicates
		w := 0
		for _, c := range colList {
			if w == 0 || colList[w-1] != c {
				colList[w] = c
				w++
			}
		}
		colList = colList[:w]
	}
	if C.format != FormatSparse {
		C.ConvertTo(FormatSparse)
	}
	cPtr, cIdx, cVal := C.ptr, C.idx, C.val
	denseMaskSrc := !mask.Exists() || mask.src.maskIsDense()
	out := buildCSRParallelScoped(nr, nc, func(scope *rowAllowScope) func(i int, emit func(j int, x T)) {
		return func(i int, emit func(j int, x T)) {
			scope.load(mask, i, nc, denseMaskSrc)
			p, pe := cPtr[i], cPtr[i+1]
			if inRow[i] == 0 {
				// Row not in region: keep entries, except replace deletes
				// disallowed positions.
				for ; p < pe; p++ {
					if scope.ok(mask, i, cIdx[p]) || !d.Replace {
						emit(cIdx[p], cVal[p])
					}
				}
				return
			}
			q := 0
			for p < pe || q < len(colList) {
				var j int
				wok, rok := false, false
				switch {
				case p < pe && (q >= len(colList) || cIdx[p] < colList[q]):
					j, wok = cIdx[p], true
				case q < len(colList) && (p >= pe || colList[q] < cIdx[p]):
					j, rok = colList[q], true
				default:
					j, wok, rok = cIdx[p], true, true
				}
				al := scope.ok(mask, i, j)
				switch {
				case al && rok:
					if accum != nil && wok {
						emit(j, accum(cVal[p], s))
					} else {
						emit(j, s)
					}
				case al && wok:
					emit(j, cVal[p])
				case !al && wok && !d.Replace:
					emit(j, cVal[p])
				}
				if wok {
					p++
				}
				if rok {
					q++
				}
			}
		}
	})
	*C = *out
	C.conform()
	return nil
}

// AssignMatrix computes C⟨M⟩(rows, cols)⊙= A, with A(r,c) landing at
// (rows[r], cols[c]).
func AssignMatrix[T Value](C *Matrix[T], mask Mask, accum func(T, T) T,
	A *Matrix[T], rows, cols []int, desc *Descriptor) error {

	nr, nc := C.Dims()
	regR, regC := len(rows), len(cols)
	if isAll(rows) {
		regR = nr
	}
	if isAll(cols) {
		regC = nc
	}
	ar, ac := A.Dims()
	if ar != regR || ac != regC {
		return dimErr("AssignMatrix", "A "+itoa(ar)+"x"+itoa(ac), "region "+itoa(regR)+"x"+itoa(regC))
	}
	for _, r := range rows {
		if r < 0 || r >= nr {
			return errf(IndexOutOfBounds, "AssignMatrix: row %d outside %d", r, nr)
		}
	}
	for _, c := range cols {
		if c < 0 || c >= nc {
			return errf(IndexOutOfBounds, "AssignMatrix: col %d outside %d", c, nc)
		}
	}
	if err := mask.check(nr, nc, "AssignMatrix"); err != nil {
		return err
	}
	d := descOf(desc)
	C.Wait()
	A.Wait()

	// Map output row -> source row of A (or -1).
	rowOf := make([]int, nr)
	for i := range rowOf {
		rowOf[i] = -1
	}
	if isAll(rows) {
		for i := 0; i < nr; i++ {
			rowOf[i] = i
		}
	} else {
		for r, i := range rows {
			rowOf[i] = r
		}
	}
	if C.format != FormatSparse {
		C.ConvertTo(FormatSparse)
	}
	cPtr, cIdx, cVal := C.ptr, C.idx, C.val
	denseMaskSrc := !mask.Exists() || mask.src.maskIsDense()
	out := buildCSRParallelScoped(nr, nc, func(scope *rowAllowScope) func(i int, emit func(j int, x T)) {
		// Staging scratch for one source row scattered to output columns.
		regHas := make([]int8, nc)
		regVal := make([]T, nc)
		regCols := make([]int, 0, 64)
		return func(i int, emit func(j int, x T)) {
			scope.load(mask, i, nc, denseMaskSrc)
			p, pe := cPtr[i], cPtr[i+1]
			sr := rowOf[i]
			if sr < 0 {
				for ; p < pe; p++ {
					if scope.ok(mask, i, cIdx[p]) || !d.Replace {
						emit(cIdx[p], cVal[p])
					}
				}
				return
			}
			// Stage A's row sr onto output columns.
			for _, j := range regCols {
				regHas[j] = 0
			}
			regCols = regCols[:0]
			aRowIter(A, sr, func(c int, x T) {
				oc := c
				if !isAll(cols) {
					oc = cols[c]
				}
				if regHas[oc] != 0 && accum != nil {
					regVal[oc] = accum(regVal[oc], x)
				} else {
					regVal[oc] = x
				}
				if regHas[oc] == 0 {
					regHas[oc] = 1
					regCols = append(regCols, oc)
				}
			})
			// The region's columns (where deletions may occur).
			inRegion := func(j int) bool {
				if isAll(cols) {
					return true
				}
				return regHas[j] != 0 || colInList(cols, j)
			}
			// Merge: iterate the union of C's row and the staged values.
			sort.Ints(regCols)
			q := 0
			for p < pe || q < len(regCols) {
				var j int
				wok, rok := false, false
				switch {
				case p < pe && (q >= len(regCols) || cIdx[p] < regCols[q]):
					j, wok = cIdx[p], true
				case q < len(regCols) && (p >= pe || regCols[q] < cIdx[p]):
					j, rok = regCols[q], true
				default:
					j, wok, rok = cIdx[p], true, true
				}
				al := scope.ok(mask, i, j)
				switch {
				case al && rok:
					if accum != nil && wok {
						emit(j, accum(cVal[p], regVal[j]))
					} else {
						emit(j, regVal[j])
					}
				case al && wok:
					// In-region position with no incoming entry deletes
					// (no accumulator); otherwise C's entry is kept.
					if accum != nil || !inRegion(j) {
						emit(j, cVal[p])
					}
				case !al && wok && !d.Replace:
					emit(j, cVal[p])
				}
				if wok {
					p++
				}
				if rok {
					q++
				}
			}
		}
	})
	*C = *out
	C.conform()
	return nil
}

// colInList reports whether j appears in the (unsorted) column index list.
func colInList(cols []int, j int) bool {
	for _, c := range cols {
		if c == j {
			return true
		}
	}
	return false
}
