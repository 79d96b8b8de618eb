package grb

import (
	"cmp"
	"strconv"
)

// Assign operations (paper Table I): project values into a region of the
// output selected by index arrays, under mask/accumulator control. The
// semantics follow GrB_assign: the mask spans the whole output, the region
// is the cross product of the index arrays, entries outside the region are
// untouched by the assignment itself, and replace semantics delete every
// entry outside the mask.
//
// Duplicate indices are permitted. They fold in index order, after w's own
// entry, whatever w's format: with an accumulator, u(k₁) and u(k₂) landing
// on one position leave (w ⊙ u(k₁)) ⊙ u(k₂) there, and without one the
// later wins. FastSV's "hooking" scatter f(x) min= mngf relies on it.

// AssignVector computes w⟨m⟩(indices)⊙= u, where u(k) lands at
// indices[k] (u's length must equal the region size). Duplicate indices
// fold in index order, after w's own entry, whatever w's format.
func AssignVector[T Value](w *Vector[T], mask VMask, accum func(T, T) T,
	u *Vector[T], indices []int, desc *Descriptor) error {

	n := w.Size()
	regionN := len(indices)
	if isAll(indices) {
		regionN = n
	}
	if u.Size() != regionN {
		return dimErr("AssignVector", "u length "+strconv.Itoa(u.Size()), "region size "+strconv.Itoa(regionN))
	}
	if err := cmp.Or(checkIndices("AssignVector", "index", indices, n), mask.check(1, n, "AssignVector")); err != nil {
		return err
	}
	d := descOf(desc)
	// Over the whole range the region is every position: w⟨m⟩ ⊙= u.
	if isAll(indices) {
		return apply(w.asRow(), mask, accum, Identity[T](), u.asRow(), d.Replace, true, "AssignVector")
	}
	w.Wait()
	u.Wait()
	// f(x) ⊙= u, the scatter into a bitmap/full w, unmasked, accumulated:
	// u(k) is folded into w at indices[k], in list order, duplicates
	// included.
	if w.format != FormatSparse && !mask.Exists() && accum != nil && u != w {
		gained := 0
		u.rowIter(0, func(k int, x T) { foldAt(w.val, w.b, &gained, indices[k], x, accum) })
		w.nvalsB += gained
		w.conform()
		return nil
	}
	// Otherwise T is assembled from u(k) at indices[k], behind w's own
	// entries in the region when an accumulator folds them, so T holds what
	// the region's positions become and is written back without one.
	in, region := members(indices, n)
	cols, vals := []int(nil), []T(nil)
	if accum != nil {
		for _, j := range region {
			if x, ok := w.get(0, j); ok {
				cols, vals = append(cols, j), append(vals, x)
			}
		}
	}
	u.rowIter(0, func(k int, x T) { cols, vals = append(cols, indices[k]), append(vals, x) })
	t := MustVector[T](n)
	t.assemble(tuples[T]{cols: cols, vals: vals}, accum)
	w.maskAccum(mask, nil, &t.store, d.Replace, false, func(_, j int) bool { return in[j] != 0 })
	return nil
}

// AssignVectorScalar computes w⟨m⟩(indices)⊙= s: every position of the
// region receives the scalar.
func AssignVectorScalar[T Value](w *Vector[T], mask VMask, accum func(T, T) T,
	s T, indices []int, desc *Descriptor) error {

	return assignScalar(w.asRow(), mask, accum, s, All, indices, descOf(desc).Replace, "AssignVectorScalar")
}

// AssignMatrixScalar computes C⟨M⟩(rows, cols)⊙= s.
func AssignMatrixScalar[T Value](C *Matrix[T], mask Mask, accum func(T, T) T,
	s T, rows, cols []int, desc *Descriptor) error {

	return assignScalar(C, mask, accum, s, rows, cols, descOf(desc).Replace, "AssignMatrixScalar")
}

// assignScalar is C⟨M⟩(rows, cols) ⊙= s. Its T holds s at every position
// of the region the mask allows, so an accumulator is not needed for C to
// change only there.
func assignScalar[T Value](C *Matrix[T], mask Mask, accum func(T, T) T,
	s T, rows, cols []int, replace bool, op string) error {

	nr, nc := C.Dims()
	reg, err := checkRegion(nr, nc, mask, rows, cols, op)
	if err != nil {
		return err
	}
	if !mask.Exists() && accum == nil && reg.fn == nil && C.format != FormatFull {
		// C(:,:) = s sets every position, so C is full whatever it held.
		C.store = store[T]{nr: nr, nc: nc, format: FormatFull, val: make([]T, nr*nc)}
	}
	// C⟨M⟩ ⊙= s over the whole range with a sparse mask that lists its
	// allowed positions (BFS's level stamp): T is the mask's pattern,
	// walked.
	walkMask := reg.fn == nil && mask.walkable()
	wb := C.output(mask, accum, replace, reg.fn, tShape{dense: reg.fn == nil && !walkMask, full: reg.fn == nil, covers: true})
	if wb.plain && reg.fn == nil {
		for p := range C.val {
			C.val[p] = s
		}
		wb.commit()
		return nil
	}
	hint := 0
	if walkMask {
		hint = mask.src.rowPtr()[nr]
	}
	masked := mask.Exists()
	run(wb, nil, hint, func(lo, hi int, o *sink[T]) {
		for i := lo; i < hi; i++ {
			o.open(i)
			switch {
			case walkMask:
				mask.walk(i, func(j int) { o.emit(j, s) })
			case reg.inRow != nil && reg.inRow[i] == 0:
			case reg.cols == nil:
				for j := 0; j < nc; j++ {
					if !masked || o.ok(j) {
						o.emit(j, s)
					}
				}
			default:
				for _, j := range reg.cols {
					if !masked || o.ok(j) {
						o.emit(j, s)
					}
				}
			}
		}
	})
	wb.commit()
	return nil
}

// matrixRegion is the rows × cols region of a matrix assign: membership per
// row and per column, the columns ascending without repeats, and the
// position predicate the write-back takes — each nil where its list is All.
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
	var reg matrixRegion
	reg.inRow, _ = members(rows, nr)
	reg.inCol, reg.cols = members(cols, nc)
	if reg.inRow != nil || reg.inCol != nil {
		reg.fn = func(i, j int) bool {
			return (reg.inRow == nil || reg.inRow[i] != 0) && (reg.inCol == nil || reg.inCol[j] != 0)
		}
	}
	return reg, nil
}

// members marks the indices of list in [0, n) and lists them ascending
// without repeats; nil for All.
func members(list []int, n int) (in []int8, sorted []int) {
	if isAll(list) {
		return nil, nil
	}
	in = make([]int8, n)
	for _, i := range list {
		in[i] = 1
	}
	for i, x := range in {
		if x != 0 {
			sorted = append(sorted, i)
		}
	}
	return in, sorted
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
