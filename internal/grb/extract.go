package grb

import (
	"cmp"
	"strconv"
)

// Extract operations (paper Table I): C⟨M⟩⊙= A(i,j), w⟨m⟩⊙= A(:,j) and
// w⟨m⟩⊙= u(i). Index arrays may contain duplicates (gather semantics);
// grb.All selects the whole range.

// ExtractSubmatrix computes C⟨M⟩⊙= A(rows, cols). The result shape is
// len(rows) × len(cols) (or A's when All). This is the induced-subgraph
// primitive; with a permutation it relabels a graph (triangle counting's
// degree sort).
func ExtractSubmatrix[T Value](C *Matrix[T], mask Mask, accum func(T, T) T,
	A *Matrix[T], rows, cols []int, desc *Descriptor) error {

	d := descOf(desc)
	return extract(C, mask, accum, oriented(A, d.TranA), rows, cols, d.Replace, "ExtractSubmatrix")
}

// ExtractSubvector computes w⟨m⟩⊙= u(indices): a gather. Duplicate
// indices are allowed (FastSV's grandparent step gf = f(f) relies on it).
func ExtractSubvector[T Value](w *Vector[T], mask VMask, accum func(T, T) T,
	u *Vector[T], indices []int, desc *Descriptor) error {

	return extract(w.asRow(), mask, accum, u.asRow(), All, indices, descOf(desc).Replace, "ExtractSubvector")
}

func extract[T Value](C *Matrix[T], mask Mask, accum func(T, T) T,
	A *Matrix[T], rows, cols []int, replace bool, op string) error {

	ar, ac := A.Dims()
	outR, outC := len(rows), len(cols)
	if isAll(rows) {
		outR = ar
	}
	if isAll(cols) {
		outC = ac
	}
	if err := cmp.Or(sameShape(op, C.nr, C.nc, outR, outC), checkIndices(op, "row", rows, ar),
		checkIndices(op, "col", cols, ac), mask.check(C.nr, C.nc, op)); err != nil {
		return err
	}
	A.Wait()
	dense := A.format != FormatSparse
	// Column gather map for a sparse source: source column -> chain of
	// output columns. Its output is jumbled, so it is built as a list.
	var head []int32 // per source col, first output position (or -1)
	var next []int32 // chain through output positions
	if !dense && !isAll(cols) {
		head = make([]int32, ac)
		for i := range head {
			head[i] = -1
		}
		next = make([]int32, outC)
		for oc := outC - 1; oc >= 0; oc-- {
			next[oc] = head[cols[oc]]
			head[cols[oc]] = int32(oc)
		}
	}
	// Rows are cut into blocks by the entries they gather.
	weight := A.rowPtr()
	if weight != nil && !isAll(rows) {
		weight = make([]int, outR+1)
		for oi, si := range rows {
			weight[oi+1] = weight[oi] + A.ptr[si+1] - A.ptr[si]
		}
	}
	// A gather visits every position of C but reads A at another: when A is
	// C, T goes to a temporary.
	wb := C.output(mask, accum, replace, nil, tShape{dense: dense, full: A.format == FormatFull, alias: A == C || head != nil})
	if wb.plain && A.format == FormatFull {
		// Every source cell is present: the gather is a copy.
		for oi := 0; oi < outR; oi++ {
			si := oi
			if !isAll(rows) {
				si = rows[oi]
			}
			for oc, sc := range cols {
				C.val[oi*outC+oc] = A.val[si*ac+sc]
			}
			if isAll(cols) {
				copy(C.val[oi*outC:(oi+1)*outC], A.val[si*ac:])
			}
		}
		wb.commit()
		return nil
	}
	masked := mask.Exists()
	run(wb, weight, sparseNVals(&A.store), func(lo, hi int, o *sink[T]) {
		for oi := lo; oi < hi; oi++ {
			o.open(oi)
			si := oi
			if !isAll(rows) {
				si = rows[oi]
			}
			switch {
			case dense: // a dense source row is read by position
				for oc := 0; oc < outC; oc++ {
					sc := oc
					if !isAll(cols) {
						sc = cols[oc]
					}
					if x, ok := A.get(si, sc); ok && (!masked || o.ok(oc)) {
						o.emit(oc, x)
					}
				}
			case head == nil:
				A.rowIter(si, func(j int, x T) {
					if !masked || o.ok(j) {
						o.emit(j, x)
					}
				})
			default:
				A.rowIter(si, func(j int, x T) {
					for oc := head[j]; oc >= 0; oc = next[oc] {
						if !masked || o.ok(int(oc)) {
							o.emit(int(oc), x)
						}
					}
				})
			}
		}
	})
	wb.commit()
	return nil
}

// ExtractColumn computes w⟨m⟩⊙= A(rows, j): the j-th column gathered at
// the given row indices (All = whole column).
func ExtractColumn[T Value](w *Vector[T], mask VMask, accum func(T, T) T,
	A *Matrix[T], rows []int, j int, desc *Descriptor) error {

	d := descOf(desc)
	A = oriented(A, d.TranA)
	ar, ac := A.Dims()
	if j < 0 || j >= ac {
		return errf(InvalidIndex, "ExtractColumn: column %d outside %d", j, ac)
	}
	outN := len(rows)
	if isAll(rows) {
		outN = ar
	}
	if w.Size() != outN {
		return dimErr("ExtractColumn", "w length "+strconv.Itoa(w.Size()), strconv.Itoa(outN))
	}
	if err := cmp.Or(checkIndices("ExtractColumn", "row", rows, ar), mask.check(1, outN, "ExtractColumn")); err != nil {
		return err
	}
	A.Wait()
	wb := w.output(mask, accum, d.Replace, nil, tShape{list: true, cut: true})
	masked := mask.Exists()
	run(wb, nil, 0, func(lo, hi int, o *sink[T]) {
		for k := lo; k < hi; k++ {
			si := k
			if !isAll(rows) {
				si = rows[k]
			}
			if masked && !o.ok(k) {
				continue
			}
			if x, ok := A.get(si, j); ok {
				o.emit(k, x)
			}
		}
	})
	wb.commit()
	return nil
}
