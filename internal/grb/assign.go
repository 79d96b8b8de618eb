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

	// Fast path: p⟨s(q)⟩ = q — whole-range assign of the mask vector
	// itself with structural, non-complemented mask, merge semantics and
	// no accumulator. Only insertions/overwrites can occur, so scatter
	// straight into w.
	if isAll(indices) && accum == nil && !d.Replace &&
		mask.Exists() && !mask.Comp && mask.Structural && sameVectorSource(mask.src, u) {
		scatterEntries(w, u, nil)
		return nil
	}

	allow := mask.allowFor(n, true)
	defer allow.release()
	// Stage the assignment region densely: reg[i] = 1 if i is in the
	// region, and the value arriving there (duplicates combined).
	reg := make([]int8, n)
	regHas := make([]int8, n)
	regVal := make([]T, n)
	stage := func(i int, x T, has bool) {
		reg[i] = 1
		if !has {
			return
		}
		if regHas[i] != 0 && accum != nil {
			regVal[i] = accum(regVal[i], x)
		} else {
			regVal[i] = x
		}
		regHas[i] = 1
	}
	if isAll(indices) {
		for i := 0; i < n; i++ {
			x, ok := u.get(i)
			stage(i, x, ok)
		}
	} else {
		for k, i := range indices {
			x, ok := u.get(k)
			stage(i, x, ok)
		}
	}
	assignMergeVector(w, &allow, d.Replace, accum, reg, regHas, regVal)
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

	// Fast path: unmasked, unaccumulated whole-range scalar assign makes
	// the vector full — w(:) = s, the idiom PR and SSSP use to initialise.
	if isAll(indices) && !mask.Exists() && accum == nil {
		w.idx, w.b = nil, nil
		w.nvalsB = 0
		w.val = make([]T, n)
		if truthy(s) {
			for i := range w.val {
				w.val[i] = s
			}
		}
		w.format = FormatFull
		return nil
	}

	// Fast path: w⟨m⟩ ⊙= s over the whole range, merge semantics, with a
	// sparse mask that lists its allowed positions — BFS's level stamp and
	// SSSP's settled set. Only those positions change, and each receives
	// the scalar, so they are folded into w where they land.
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

	allow := mask.allowFor(n, true)
	defer allow.release()
	reg := make([]int8, n)
	regHas := make([]int8, n)
	regVal := make([]T, n)
	mark := func(i int) {
		reg[i] = 1
		regHas[i] = 1
		regVal[i] = s
	}
	if isAll(indices) {
		for i := 0; i < n; i++ {
			mark(i)
		}
	} else {
		for _, i := range indices {
			mark(i)
		}
	}
	assignMergeVector(w, &allow, d.Replace, accum, reg, regHas, regVal)
	return nil
}

// assignMergeVector rebuilds w from the staged region:
//
//	i allowed, in region, value arrived : accum(w,u) / u
//	i allowed, in region, no value      : accum==nil ? delete : keep
//	i allowed, not in region            : keep
//	i not allowed                       : replace ? delete : keep
func assignMergeVector[T Value](w *Vector[T], allow *vAllow, replace bool,
	accum func(T, T) T, reg, regHas []int8, regVal []T) {

	n := w.Size()
	outB := make([]int8, n)
	outV := make([]T, n)
	nvals := 0
	for i := 0; i < n; i++ {
		al := allow.ok(i)
		wx, wok := w.get(i)
		var x T
		keep := false
		switch {
		case al && reg[i] != 0 && regHas[i] != 0:
			if accum != nil && wok {
				x, keep = accum(wx, regVal[i]), true
			} else {
				x, keep = regVal[i], true
			}
		case al && reg[i] != 0: // region position with no incoming value
			if accum != nil && wok {
				x, keep = wx, true
			}
		case al:
			if wok {
				x, keep = wx, true
			}
		default:
			if !replace && wok {
				x, keep = wx, true
			}
		}
		if keep {
			outB[i] = 1
			outV[i] = x
			nvals++
		}
	}
	w.idx = nil
	w.b, w.val = outB, outV
	w.nvalsB = nvals
	w.format = FormatBitmap
	w.conform()
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
		u.Iterate(func(i int, x T) {
			if w.format == FormatFull || w.b[i] != 0 {
				if accum != nil {
					x = accum(w.val[i], x)
				}
			} else {
				w.b[i] = 1
				w.nvalsB++
			}
			w.val[i] = x
		})
		w.conform()
		return
	}
	// Both sparse: merge the two sorted lists.
	outI := make([]int, 0, len(w.idx)+len(u.idx))
	outV := make([]T, 0, cap(outI))
	p, q := 0, 0
	for p < len(w.idx) || q < len(u.idx) {
		switch {
		case p < len(w.idx) && (q >= len(u.idx) || w.idx[p] < u.idx[q]):
			outI = append(outI, w.idx[p])
			outV = append(outV, w.val[p])
			p++
		case q < len(u.idx) && (p >= len(w.idx) || u.idx[q] < w.idx[p]):
			outI = append(outI, u.idx[q])
			outV = append(outV, u.val[q])
			q++
		default:
			x := u.val[q]
			if accum != nil {
				x = accum(w.val[p], x)
			}
			outI = append(outI, u.idx[q])
			outV = append(outV, x)
			p++
			q++
		}
	}
	w.idx, w.val = outI, outV
	w.conform()
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
