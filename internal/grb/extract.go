package grb

import "cmp"

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
	A = oriented(A, d.TranA)
	ar, ac := A.Dims()
	outR, outC := len(rows), len(cols)
	if isAll(rows) {
		outR = ar
	}
	if isAll(cols) {
		outC = ac
	}
	cr, cc := C.Dims()
	if cr != outR || cc != outC {
		return dimErr("ExtractSubmatrix", "C "+itoa(cr)+"x"+itoa(cc), itoa(outR)+"x"+itoa(outC))
	}
	if err := cmp.Or(checkIndices("ExtractSubmatrix", "row", rows, ar), checkIndices("ExtractSubmatrix", "col", cols, ac)); err != nil {
		return err
	}
	if err := mask.check(cr, cc, "ExtractSubmatrix"); err != nil {
		return err
	}
	A.Wait()

	// Column gather map: source column -> chain of output columns.
	var head []int32 // per source col, first output position (or -1)
	var next []int32 // chain through output positions
	if !isAll(cols) {
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
	denseMaskSrc := !mask.Exists() || mask.src.maskIsDense()
	t := buildCSRParallelScoped(outR, outC, weight, func(scope *rowAllowScope) func(i int, emit func(j int, x T)) {
		return func(oi int, emit func(j int, x T)) {
			scope.load(mask, oi, outC, denseMaskSrc)
			si := oi
			if !isAll(rows) {
				si = rows[oi]
			}
			aRowIter(A, si, func(j int, x T) {
				if head == nil {
					if scope.ok(mask, oi, j) {
						emit(j, x)
					}
					return
				}
				for oc := head[j]; oc >= 0; oc = next[oc] {
					if scope.ok(mask, oi, int(oc)) {
						emit(int(oc), x)
					}
				}
			})
		}
	})
	maskAccumMatrix(C, mask, accum, t, d.Replace, true, nil)
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
		return dimErr("ExtractColumn", "w length "+itoa(w.Size()), itoa(outN))
	}
	if err := mask.check(outN, "ExtractColumn"); err != nil {
		return err
	}
	A.Wait()
	allow := mask.allowFor(outN, true)
	defer allow.release()
	t := buildVectorByIndex(outN, func(k int) (T, bool) {
		var zero T
		if !allow.ok(k) {
			return zero, false
		}
		si := k
		if !isAll(rows) {
			si = rows[k]
		}
		if si < 0 || si >= ar {
			return zero, false
		}
		if ex, _ := A.maskHas(si, j); !ex {
			return zero, false
		}
		x, err := A.ExtractElement(si, j)
		if err != nil {
			return zero, false
		}
		return x, true
	})
	maskAccumVector(w, mask, accum, t, d.Replace, true)
	return nil
}

// ExtractSubvector computes w⟨m⟩⊙= u(indices): a gather. Duplicate
// indices are allowed (FastSV's grandparent step gf = f(f) relies on it).
func ExtractSubvector[T Value](w *Vector[T], mask VMask, accum func(T, T) T,
	u *Vector[T], indices []int, desc *Descriptor) error {

	un := u.Size()
	outN := len(indices)
	if isAll(indices) {
		outN = un
	}
	if w.Size() != outN {
		return dimErr("ExtractSubvector", "w length "+itoa(w.Size()), itoa(outN))
	}
	if err := checkIndices("ExtractSubvector", "index", indices, un); err != nil {
		return err
	}
	if err := mask.check(outN, "ExtractSubvector"); err != nil {
		return err
	}
	d := descOf(desc)
	u.Wait()
	// A gather visits every position of w but reads u at another.
	dst := denseOutput(w, mask, accum, d.Replace, u)
	all := isAll(indices)
	for k := 0; k < outN; k++ {
		si := k
		if !all {
			si = indices[k]
		}
		if x, ok := u.get(0, si); ok {
			dst.put(k, x)
		} else {
			dst.none(k)
		}
	}
	dst.commit()
	return nil
}
