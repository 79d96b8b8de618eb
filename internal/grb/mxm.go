package grb

import "strconv"

// MxM computes C⟨M⟩⊙= A ⊕.⊗ B (paper Table I, first row).
//
// Kernel selection mirrors SuiteSparse:GraphBLAS:
//
//   - plain product: row-parallel Gustavson (saxpy) with one sparse
//     accumulator per worker; the output is produced jumbled and left for
//     the lazy sort;
//   - desc.TranB (C = A·Bᵀ with B held by row): a dot-product kernel that
//     never materialises Bᵀ. With a structural mask — the triangle-counting
//     pattern C⟨s(L)⟩ = L plus.pair Uᵀ — only the mask's positions are
//     computed (the paper notes SS:GrB uses a dot method there);
//   - desc.TranA: Aᵀ is materialised once and the plain kernel runs, the
//     explicit-transpose strategy LAGraph itself uses via G.AT.
func MxM[TA, TB, TC Value](C *Matrix[TC], mask Mask, accum func(TC, TC) TC,
	s Semiring[TA, TB, TC], A *Matrix[TA], B *Matrix[TB], desc *Descriptor) error {

	d := descOf(desc)
	A = oriented(A, d.TranA)
	ar, ac := A.Dims()
	br, bc := B.Dims()
	if d.TranB {
		br, bc = bc, br
	}
	if ac != br {
		return dimErr("MxM", "A cols "+strconv.Itoa(ac), "B rows "+strconv.Itoa(br))
	}
	cr, cc := C.Dims()
	if cr != ar || cc != bc {
		return dimErr("MxM", "C "+strconv.Itoa(cr)+"x"+strconv.Itoa(cc), strconv.Itoa(ar)+"x"+strconv.Itoa(bc))
	}
	if err := mask.check(cr, cc, "MxM"); err != nil {
		return err
	}
	A.Wait()
	B.Wait()
	// T is a temporary: a row of the product reads rows of B, which may be C.
	if d.TranB {
		dotKernel(C.output(mask, accum, d.Replace, nil, tShape{dense: !mask.enumerable(), alias: true}), s, A, B)
	} else {
		// A row's candidates are many: a sparse mask row is scattered.
		saxpyKernel(C.output(mask, accum, d.Replace, nil, tShape{dense: mask.Exists() && !mask.src.maskIsDense(), alias: true}), s, A, B)
	}
	return nil
}

// saxpyKernel computes t = A·B row by row: t(i,:) = ⊕_k A(i,k)·B(k,:),
// restricted to mask-allowed positions. Each block of rows borrows a pooled
// sparse accumulator sized to B's column count.
func saxpyKernel[TA, TB, TC Value](wb *writeBack[TC], s Semiring[TA, TB, TC], A *Matrix[TA], B *Matrix[TB]) {
	nc := B.NCols()
	run(wb, nil, 0, func(lo, hi int, o *sink[TC]) {
		s, acc := s, getSPA[TC](nc) // s copied: the closure holds it by value, not on the heap
		defer putSPA(acc)
		var allowed func(j int) bool
		if wb.mk.Exists() {
			allowed = o.ok
		}
		for i := lo; i < hi; i++ {
			o.open(i)
			saxpyRow(&s, A, i, B, allowed, acc)
			o.reserve(len(acc.touched))
			for _, j := range acc.touched {
				o.emit(j, acc.val[j])
			}
		}
	})
	wb.commit()
}

// saxpyRow leaves ⊕_k A(i,k)·B(k,:) in acc, at the columns allowed lets
// through (nil: all). It is the product's one scatter: a row of MxM, and the
// whole of a push VxM, whose frontier is row 0 of a one-row A.
func saxpyRow[TA, TB, TC Value](s *Semiring[TA, TB, TC], A *Matrix[TA], i int, B *Matrix[TB],
	allowed func(j int) bool, acc *spa[TC]) {

	acc.reset()
	addF, isAny, mul := s.Add.F, s.Add.IsAny, s.Mul
	A.rowIter(i, func(k int, ax TA) {
		contribute := func(j int, bx TB) {
			if allowed != nil && !allowed(j) {
				return
			}
			seen := acc.has(j)
			if seen && isAny {
				return
			}
			var x TC
			if mul.PosF != nil {
				x = mul.PosF(i, k, j)
			} else {
				x = mul.F(ax, bx)
			}
			if seen {
				acc.val[j] = addF(acc.val[j], x)
			} else {
				acc.put(j, x)
			}
		}
		if B.format == FormatSparse {
			for q := B.ptr[k]; q < B.ptr[k+1]; q++ {
				contribute(B.idx[q], B.val[q])
			}
		} else {
			for j, base := 0, k*B.nc; j < B.nc; j++ {
				if B.denseHas(base + j) {
					contribute(j, B.val[base+j])
				}
			}
		}
	})
}

// dotKernel computes t = A·Bᵀ with both operands held by row:
// t(i,j) = ⊕ over the sorted intersection of A(i,:) and B(j,:). With an
// enumerable mask only mask positions are evaluated — SuiteSparse's dot3
// method — and the rows are cut into blocks of equal mask entries, since a
// row's work grows with its mask row (after TC's degree sort, nearly all of
// it sits in the last rows); otherwise every (i,j) the mask allows is
// evaluated. When both are sparse, each worker scatters A(i,:) into a
// pooled accumulator once for the row (if its mask row has entries), and
// each B(j,:) probes it: TC's L(i,:) is read once, not once per mask entry.
// Plus.pair into int64 then counts the probe hits in pairCount's one loop.
func dotKernel[TA, TB, TC Value](wb *writeBack[TC], s Semiring[TA, TB, TC], A *Matrix[TA], B *Matrix[TB]) {
	mask, nc := wb.mk, B.NRows()
	enumerable := mask.enumerable()
	var weight []int
	if enumerable {
		weight = mask.src.rowPtr()
	}
	scatter := A.format == FormatSparse && B.format == FormatSparse
	run(wb, weight, 0, func(lo, hi int, o *sink[TC]) {
		var a *spa[TA]
		var pairs *sink[int64] // o itself, when pairCount computes the product
		if scatter {
			a = getSPA[TA](A.nc)
			defer putSPA(a)
			if s.pull == pullPlusPair {
				pairs, _ = any(o).(*sink[int64])
			}
		}
		// One mask-row visitor per block, pointed at the current row: made
		// per row, it would cost a heap object a row.
		row := 0
		visit := func(j int, tv bool) {
			if !mask.selects(tv) {
				return
			}
			if pairs != nil {
				if c := pairCount(A, B, row, j, a); c > 0 {
					pairs.emit(j, c)
				}
			} else if x, ok := dotRow(&s, A, B, row, j, a); ok {
				o.emit(j, x)
			}
		}
		for i := lo; i < hi; i++ {
			o.open(i)
			if a != nil && (weight == nil || weight[i] < weight[i+1]) {
				a.reset()
				for p := A.ptr[i]; p < A.ptr[i+1]; p++ {
					a.mark[A.idx[p]], a.val[A.idx[p]] = a.gen, A.val[p]
				}
			}
			row = i
			if enumerable {
				mask.src.maskRowIter(i, 0, nc, visit)
				continue
			}
			for j := 0; j < nc; j++ {
				if o.ok(j) {
					visit(j, true)
				}
			}
		}
	})
	wb.commit()
}

// pairCount is dotRow on plus.pair into int64 over two sparse rows, A(i,:)
// scattered into a: how many entries of B(j,:) a holds, 0 for none. B(j,:)
// is walked up to A(i,:)'s last column, with no binary search to trim it.
func pairCount[TA, TB Value](A *Matrix[TA], B *Matrix[TB], i, j int, a *spa[TA]) (c int64) {
	p, pe, q, qe := A.ptr[i], A.ptr[i+1], B.ptr[j], B.ptr[j+1]
	if p == pe {
		return 0
	}
	mark, gen, last := a.mark, a.gen, A.idx[pe-1]
	for _, k := range B.idx[q:qe] {
		if k > last {
			break
		}
		if mark[k] == gen {
			c++
		}
	}
	return c
}

// dotRow reduces the intersection of A(i,:) with B(j,:) on the semiring, in
// ascending k. A sparse B(j,:) is walked and A(i,:) probed: a dense A in
// place, a sparse A through a, its row scattered by dotKernel. Against a
// sparse A the walk stops past A(i,:)'s last column, as pairCount's does.
// Only columns that cannot match are skipped, so every semiring —
// early-exit monoids and positional multipliers included — sees the pairs
// a merge of the two rows would, in the same order. A sparse A with a
// dense B walks A(i,:) and probes B.
func dotRow[TA, TB, TC Value](s *Semiring[TA, TB, TC], A *Matrix[TA], B *Matrix[TB], i, j int, a *spa[TA]) (TC, bool) {
	var acc TC
	got := false
	mul := s.Mul
	addF := s.Add.F
	isAny := s.Add.IsAny
	terminal := s.Add.Terminal
	combine := func(k int, ax TA, bx TB) bool {
		var x TC
		if mul.PosF != nil {
			// Pair (A(i,k), Bᵀ(k,j)) = (A(i,k), B(j,k)).
			x = mul.PosF(i, k, j)
		} else {
			x = mul.F(ax, bx)
		}
		if !got {
			acc, got = x, true
			if isAny {
				return false
			}
		} else {
			acc = addF(acc, x)
		}
		return !(terminal != nil && acc == *terminal)
	}
	switch aS := A.format == FormatSparse; {
	case B.format == FormatSparse && aS: // A(i,:) scattered into a
		p, pe := A.ptr[i], A.ptr[i+1]
		q, qe := B.ptr[j], B.ptr[j+1]
		if p == pe || q == qe {
			return acc, got
		}
		for last := A.idx[pe-1]; q < qe && B.idx[q] <= last; q++ {
			if k := B.idx[q]; a.mark[k] == a.gen && !combine(k, a.val[k], B.val[q]) {
				return acc, got
			}
		}
	case B.format == FormatSparse: // A dense
		for q, base := B.ptr[j], i*A.nc; q < B.ptr[j+1]; q++ {
			if k := B.idx[q]; A.denseHas(base+k) && !combine(k, A.val[base+k], B.val[q]) {
				return acc, got
			}
		}
	case aS: // B dense
		for p, base := A.ptr[i], j*B.nc; p < A.ptr[i+1]; p++ {
			if k := A.idx[p]; B.denseHas(base+k) && !combine(k, A.val[p], B.val[base+k]) {
				return acc, got
			}
		}
	default: // both dense
		for k, aBase, bBase := 0, i*A.nc, j*B.nc; k < A.nc; k++ {
			if A.denseHas(aBase+k) && B.denseHas(bBase+k) && !combine(k, A.val[aBase+k], B.val[bBase+k]) {
				return acc, got
			}
		}
	}
	return acc, got
}

// entries visits the entries of row i, or — walk — those at the mask's
// allowed positions, probed.
func (s *store[T]) entries(i int, mk Mask, walk bool, f func(k int, x T)) {
	if !walk {
		s.rowIter(i, f)
		return
	}
	mk.walk(i, func(j int) {
		if x, ok := s.get(i, j); ok {
			f(j, x)
		}
	})
}

// rowIter visits the live entries of row i in storage order.
func (s *store[T]) rowIter(i int, f func(k int, x T)) {
	if s.format == FormatSparse {
		for p := s.ptr[i]; p < s.ptr[i+1]; p++ {
			f(s.idx[p], s.val[p])
		}
		return
	}
	base := i * s.nc
	for k := 0; k < s.nc; k++ {
		if s.format == FormatFull || s.b[base+k] != 0 {
			f(k, s.val[base+k])
		}
	}
}

// spa is a sparse accumulator: dense value/flag arrays plus a touched list
// for O(nnz) reset. One per worker in saxpy-style kernels.
type spa[T Value] struct {
	mark    []int32
	val     []T
	gen     int32
	touched []int
}

func newSPA[T Value](n int) *spa[T] {
	return &spa[T]{mark: make([]int32, n), val: make([]T, n), gen: 0}
}

// reset prepares the accumulator for a new row.
func (s *spa[T]) reset() {
	if s.gen == 1<<31-1 {
		// Generation counter wrap (possible only with pooling): clear.
		for i := range s.mark {
			s.mark[i] = 0
		}
		s.gen = 0
	}
	s.gen++
	s.touched = s.touched[:0]
}

// has reports whether index j holds a value for the current row.
func (s *spa[T]) has(j int) bool { return s.mark[j] == s.gen }

// put stores the first value for index j.
func (s *spa[T]) put(j int, x T) {
	s.mark[j] = s.gen
	s.val[j] = x
	s.touched = append(s.touched, j)
}
