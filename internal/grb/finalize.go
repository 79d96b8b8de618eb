package grb

import "lagraph/internal/parallel"

// finalize implements the common tail of every GraphBLAS operation:
// C⟨M⟩⊙= T (and the vector analogue), where T is the freshly computed
// result. The semantics (C API §"mask and accumulator"):
//
//	position allowed by mask:
//	    T and C present  -> accum==nil ? T : accum(C, T)
//	    only T present   -> T
//	    only C present   -> accum==nil ? deleted : C kept
//	position not allowed:
//	    replace          -> deleted
//	    merge            -> C kept
//
// tMasked declares that T was already restricted to allowed positions by
// the kernel, enabling the move fast paths; correctness does not depend on
// it because the general path re-checks the mask.

func maskAccumVector[T Value](w *Vector[T], mk VMask, accum func(T, T) T, t *Vector[T], replace, tMasked bool) {
	// No accumulator and nothing of w survives outside t (no mask, or a
	// replace with a pre-masked t): w becomes t.
	if accum == nil && (!mk.Exists() || replace && tMasked) {
		*w = *t
		w.conform()
		return
	}
	t.Wait()
	// Only a sparse t's entries can change w: fold them in where they land.
	if t.format == FormatSparse && inPlace(w, mk, accum, false) {
		scatterEntries(w, t, accum)
		return
	}
	w.Wait()
	if w.format == FormatSparse && !inPlace(w, mk, accum, true) {
		t.ConvertTo(FormatSparse) // a thin result for a sparse w: merge the lists
	}
	if w.format != FormatSparse || t.format != FormatSparse {
		mergeByPosition(w, mk, accum, t, replace)
		return
	}
	// Sparse two-pointer merge, the mask probed per entry.
	allow := mk.allowFor(w.n, false)
	widx, wval := w.idx, w.val
	tidx, tval := t.idx, t.val
	outI := make([]int, 0, len(widx)+len(tidx))
	outV := make([]T, 0, len(widx)+len(tidx))
	p, q := 0, 0
	emit := func(i int, x T) { outI = append(outI, i); outV = append(outV, x) }
	for p < len(widx) || q < len(tidx) {
		var i int
		wok, tok := false, false
		switch {
		case p < len(widx) && (q >= len(tidx) || widx[p] < tidx[q]):
			i, wok = widx[p], true
		case q < len(tidx) && (p >= len(widx) || tidx[q] < widx[p]):
			i, tok = tidx[q], true
		default:
			i, wok, tok = widx[p], true, true
		}
		al := allow.ok(i)
		switch {
		case al && wok && tok:
			if accum != nil {
				emit(i, accum(wval[p], tval[q]))
			} else {
				emit(i, tval[q])
			}
		case al && tok:
			emit(i, tval[q])
		case al && wok:
			if accum != nil {
				emit(i, wval[p])
			}
		case !al && wok && !replace:
			emit(i, wval[p])
		}
		if wok {
			p++
		}
		if tok {
			q++
		}
	}
	w.idx, w.val = outI, outV
	w.conform()
}

// mergeByPosition is w⟨m⟩ ⊙= t made position by position under the
// dense-output rule; t is only read, and may be w.
func mergeByPosition[T Value](w *Vector[T], mk VMask, accum func(T, T) T, t *Vector[T], replace bool) {
	dst := denseOutput(w, mk, accum, replace)
	tc := cursorOf(t)
	for i := 0; i < w.n; i++ {
		if x, ok := tc.at(i); ok {
			dst.put(i, x)
		} else {
			dst.none(i)
		}
	}
	dst.commit()
}

func maskAccumMatrix[T Value](C *Matrix[T], mk Mask, accum func(T, T) T, t *Matrix[T], replace, tMasked bool) {
	// Fast path 1: no mask, no accumulator — C becomes t.
	if !mk.Exists() && accum == nil {
		*C = *t
		C.conform()
		return
	}
	// Fast path 2: masked replace, no accumulator, pre-masked t.
	if mk.Exists() && replace && accum == nil && tMasked {
		*C = *t
		C.conform()
		return
	}
	// Fast path 3: dense += dense with no mask.
	if !mk.Exists() && accum != nil && C.format == FormatFull && t.format == FormatFull {
		parallel.For(len(C.val), func(lo, hi int) {
			for p := lo; p < hi; p++ {
				C.val[p] = accum(C.val[p], t.val[p])
			}
		})
		return
	}
	// Fast path 4: unmasked accumulate into a bitmap/full C (which is never
	// a shared snapshot and holds no pending tuples): fold t's entries in
	// where they land instead of rebuilding C around them.
	if !mk.Exists() && accum != nil && C.format != FormatSparse {
		t.Wait()
		for i := 0; i < t.nr; i++ {
			base := i * C.nc
			aRowIter(t, i, func(j int, x T) {
				p := base + j
				if C.format == FormatFull || C.b[p] != 0 {
					C.val[p] = accum(C.val[p], x)
				} else {
					C.b[p], C.val[p] = 1, x
					C.nvalsB++
				}
			})
		}
		C.conform()
		return
	}
	// General path: row-parallel merge in sparse form.
	C.Wait()
	t.Wait()
	if C.format != FormatSparse {
		C.ConvertTo(FormatSparse)
	}
	if t.format != FormatSparse {
		t.ConvertTo(FormatSparse)
	}
	nr, nc := C.nr, C.nc
	cPtr, cIdx, cVal := C.ptr, C.idx, C.val
	tPtr, tIdx, tVal := t.ptr, t.idx, t.val
	denseMaskSrc := !mk.Exists() || mk.src.maskIsDense()
	out := buildCSRParallelScoped(nr, nc, func(scope *rowAllowScope) func(i int, emit func(j int, x T)) {
		return func(i int, emit func(j int, x T)) {
			scope.load(mk, i, nc, denseMaskSrc)
			p, pe := cPtr[i], cPtr[i+1]
			q, qe := tPtr[i], tPtr[i+1]
			for p < pe || q < qe {
				var j int
				wok, tok := false, false
				switch {
				case p < pe && (q >= qe || cIdx[p] < tIdx[q]):
					j, wok = cIdx[p], true
				case q < qe && (p >= pe || tIdx[q] < cIdx[p]):
					j, tok = tIdx[q], true
				default:
					j, wok, tok = cIdx[p], true, true
				}
				al := scope.ok(mk, i, j)
				switch {
				case al && wok && tok:
					if accum != nil {
						emit(j, accum(cVal[p], tVal[q]))
					} else {
						emit(j, tVal[q])
					}
				case al && tok:
					emit(j, tVal[q])
				case al && wok:
					if accum != nil {
						emit(j, cVal[p])
					}
				case !al && wok && !replace:
					emit(j, cVal[p])
				}
				if wok {
					p++
				}
				if tok {
					q++
				}
			}
		}
	})
	*C = *out
	C.conform()
}

// rowAllowScope caches one mask row scattered into a dense scratch, so
// sparse-mask lookups during a row merge are O(1). Each parallel worker
// owns one scope; the scratch is a pooled slab, handed back (after atEnd,
// where a kernel returns what else it borrowed) when the worker's block ends.
type rowAllowScope struct {
	slab    *[]int8
	scratch []int8
	touched []int
	row     int
	direct  bool // dense mask source (or no mask): query mk.allowed directly
	atEnd   func()
}

func (s *rowAllowScope) release() {
	if s.slab != nil {
		for _, j := range s.touched {
			s.scratch[j] = 0
		}
		putSlab(s.slab)
		s.slab, s.scratch = nil, nil
	}
	if s.atEnd != nil {
		s.atEnd()
	}
}

func (s *rowAllowScope) load(mk Mask, i, nc int, denseSrc bool) {
	s.row = i
	if !mk.Exists() || denseSrc {
		s.direct = true
		return
	}
	s.direct = false
	if s.scratch == nil {
		s.slab = getSlab(nc)
		s.scratch = *s.slab
	}
	for _, j := range s.touched {
		s.scratch[j] = 0
	}
	s.touched = s.touched[:0]
	mk.src.maskRowIter(i, func(j int, tv bool) {
		if mk.selects(tv) {
			s.scratch[j] = 1
			s.touched = append(s.touched, j)
		}
	})
}

func (s *rowAllowScope) ok(mk Mask, i, j int) bool {
	if s.direct {
		return mk.allowed(i, j)
	}
	sel := s.scratch[j] != 0
	if mk.Comp {
		return !sel
	}
	return sel
}

// buildCSRParallelScoped constructs a sparse matrix row by row. Rows are
// processed in parallel across contiguous blocks; every block calls
// makeRowFn once with a private rowAllowScope (dense per-row mask scratch),
// so a kernel keeps its scratch state per goroutine, and then calls the
// returned rowFn once per row with an emit function. Emitted columns need
// not be sorted: the builder detects disorder per row and leaves the result
// jumbled (lazy sort) when any row is unsorted.
func buildCSRParallelScoped[T Value](nr, nc int, makeRowFn func(*rowAllowScope) func(i int, emit func(j int, x T))) *Matrix[T] {
	m := MustMatrix[T](nr, nc)
	if nr == 0 {
		return m
	}
	type block struct {
		lo      int
		idx     []int
		val     []T
		jumbled bool
	}
	rowLen := make([]int, nr+1)
	blocks := parallel.Blocks(nr, func(lo, hi int) block {
		scope := &rowAllowScope{row: -1}
		defer scope.release()
		rowFn := makeRowFn(scope)
		// One emit closure per block, its row state reset per row: created
		// inside the row loop it would cost three heap objects a row.
		blk := block{lo: lo}
		last, rowSorted := -1, true
		emit := func(j int, x T) {
			blk.idx = append(blk.idx, j)
			blk.val = append(blk.val, x)
			if j < last {
				rowSorted = false
			}
			last = j
		}
		for i := lo; i < hi; i++ {
			start := len(blk.idx)
			last, rowSorted = -1, true
			rowFn(i, emit)
			rowLen[i] = len(blk.idx) - start
			if !rowSorted {
				blk.jumbled = true
			}
		}
		return blk
	})
	nnz := parallel.ExclusiveScan(rowLen)
	m.ptr = rowLen
	m.idx = make([]int, nnz)
	m.val = make([]T, nnz)
	jumbled := false
	for b := range blocks {
		blk := &blocks[b]
		jumbled = jumbled || blk.jumbled
		copy(m.idx[m.ptr[blk.lo]:], blk.idx)
		copy(m.val[m.ptr[blk.lo]:], blk.val)
	}
	if jumbled {
		m.markJumbled()
	}
	return m
}
