package grb

import "lagraph/internal/parallel"

// finalize implements the common tail of every GraphBLAS operation:
// C⟨M, r⟩ ⊙= T (and the vector analogue), where T is the freshly computed
// result. The rule at one position is settle, written once; every merge in
// the package — the sparse lists, the CSR rows, the dense output updated
// where it lies (denseout.go), the assigns with their region — calls it.
//
// tMasked declares that T was already restricted to allowed positions by
// the kernel, enabling the move fast path; correctness does not depend on
// it because the general path re-checks the mask.

// fate is what C⟨M, r⟩ ⊙= T leaves at one position of C.
type fate int8

const (
	gone     fate = iota // no entry
	kept                 // the entry C holds, as it is
	taken                // T's entry
	combined             // accum(C's entry, T's entry)
)

// settle is C⟨M, r⟩ ⊙= T at one position (C API §"mask and accumulator"),
// given whether the mask allows the position, whether the call writes it at
// all — an assign leaves what lies outside its region alone — and whether C
// (cok) and T (tok) hold an entry there:
//
//	not allowed              replace ? gone : kept
//	allowed, outside region  kept
//	allowed, T and C         accumulator ? combined : taken
//	allowed, only T          taken
//	allowed, only C          accumulator ? kept : gone
func settle(allowed, replace, inRegion, accumulator, cok, tok bool) fate {
	keep := gone
	if cok {
		keep = kept
	}
	switch {
	case !allowed && replace:
		return gone
	case !allowed, !inRegion:
		return keep
	case tok && cok && accumulator:
		return combined
	case tok:
		return taken
	case accumulator:
		return keep
	}
	return gone
}

// unionWalk visits the union of two ascending index lists in order:
// visit(i, p, q) with p and q the places of i in a and b, -1 where a list
// does not hold it.
func unionWalk(a, b []int, visit func(i, p, q int)) {
	p, q := 0, 0
	for p < len(a) || q < len(b) {
		switch {
		case p < len(a) && (q >= len(b) || a[p] < b[q]):
			visit(a[p], p, -1)
			p++
		case q < len(b) && (p >= len(a) || b[q] < a[p]):
			visit(b[q], -1, q)
			q++
		default:
			visit(a[p], p, q)
			p++
			q++
		}
	}
}

// entryAt reads one side of a unionWalk visit: vals[p], or no entry.
func entryAt[T any](vals []T, p int) (x T, ok bool) {
	if p < 0 {
		return x, false
	}
	return vals[p], true
}

// foldAt is C(p) ⊙= x where C is bitmap or full, on the (val, b, nvals)
// triple a matrix and a vector share: accum(C(p), x) where C holds an entry
// and an accumulator is given, x otherwise.
func foldAt[T Value](val []T, b []int8, nvals *int, p int, x T, accum func(T, T) T) {
	if b == nil || b[p] != 0 {
		if accum != nil {
			x = accum(val[p], x)
		}
	} else {
		b[p] = 1
		*nvals++
	}
	val[p] = x
}

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
	// The sorted merge of two lists, the mask probed per entry.
	allow := mk.allowFor(w.nc, false)
	outI := make([]int, 0, len(w.idx)+len(t.idx))
	outV := make([]T, 0, len(w.idx)+len(t.idx))
	unionWalk(w.idx, t.idx, func(i, p, q int) {
		switch settle(allow.ok(i), replace, true, accum != nil, p >= 0, q >= 0) {
		case kept:
			outI, outV = append(outI, i), append(outV, w.val[p])
		case taken:
			outI, outV = append(outI, i), append(outV, t.val[q])
		case combined:
			outI, outV = append(outI, i), append(outV, accum(w.val[p], t.val[q]))
		}
	})
	w.idx, w.val = outI, outV
	w.conform()
}

// mergeByPosition is w⟨m⟩ ⊙= t made position by position under the
// dense-output rule; t is only read, and may be w.
func mergeByPosition[T Value](w *Vector[T], mk VMask, accum func(T, T) T, t *Vector[T], replace bool) {
	dst := denseOutput(w, mk, accum, replace)
	tc := cursorOf(t)
	for i := 0; i < w.nc; i++ {
		if x, ok := tc.at(i); ok {
			dst.put(i, x)
		} else {
			dst.none(i)
		}
	}
	dst.commit()
}

// maskAccumMatrix is C⟨M, r⟩ ⊙= t. region, when non-nil, is the set of
// positions an assign writes; every other call writes all of C.
func maskAccumMatrix[T Value](C *Matrix[T], mk Mask, accum func(T, T) T, t *Matrix[T],
	replace, tMasked bool, region func(i, j int) bool) {

	// No accumulator and nothing of C survives outside t: C becomes t. That
	// holds without a mask, and for a pre-masked t when C's entries outside
	// the mask go (replace) or there are none, pending included (TC's
	// C⟨s(L)⟩ = L·Uᵀ into a new C).
	if accum == nil && region == nil && (!mk.Exists() || tMasked && (replace || C.nvalsUpper() == 0)) {
		*C = *t
		C.conform()
		return
	}
	// An unmasked accumulate into a bitmap/full C (which is never a shared
	// snapshot and holds no pending tuples) changes C only at t's entries:
	// they are folded in where they land.
	if !mk.Exists() && accum != nil && C.format != FormatSparse {
		t.Wait()
		for i := 0; i < t.nr; i++ {
			base := i * C.nc
			aRowIter(t, i, func(j int, x T) { foldAt(C.val, C.b, &C.nvalsB, base+j, x, accum) })
		}
		C.conform()
		return
	}
	// General path: row-parallel merge in sparse form.
	C.Wait()
	t.Wait()
	C.ConvertTo(FormatSparse)
	t.ConvertTo(FormatSparse)
	nr, nc := C.nr, C.nc
	denseMaskSrc := !mk.Exists() || mk.src.maskIsDense()
	out := buildCSRParallelScoped(nr, nc, nil, func(scope *rowAllowScope) func(i int, emit func(j int, x T)) {
		return func(i int, emit func(j int, x T)) {
			scope.load(mk, i, nc, denseMaskSrc)
			cIdx, cVal := C.idx[C.ptr[i]:C.ptr[i+1]], C.val[C.ptr[i]:C.ptr[i+1]]
			tIdx, tVal := t.idx[t.ptr[i]:t.ptr[i+1]], t.val[t.ptr[i]:t.ptr[i+1]]
			unionWalk(cIdx, tIdx, func(j, p, q int) {
				switch settle(scope.ok(mk, i, j), replace, region == nil || region(i, j), accum != nil, p >= 0, q >= 0) {
				case kept:
					emit(j, cVal[p])
				case taken:
					emit(j, tVal[q])
				case combined:
					emit(j, accum(cVal[p], tVal[q]))
				}
			})
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
	mark    func(j int, truthyVal bool)
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
	if s.mark == nil {
		// One row visitor per scope, which serves one call and so one mask:
		// made per row, it would cost a heap object a row.
		s.mark = func(j int, tv bool) {
			if mk.selects(tv) {
				s.scratch[j] = 1
				s.touched = append(s.touched, j)
			}
		}
	}
	mk.src.maskRowIter(i, s.mark)
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
// processed in parallel across contiguous blocks, cut by parallel.Blocks at
// equal weight (weight: a row pointer whose row lengths track each row's
// work, or nil for equal-length blocks); every block calls makeRowFn once
// with a private rowAllowScope (dense per-row mask scratch), so a kernel
// keeps its scratch state per block, and then calls the returned rowFn once
// per row with an emit function. Emitted columns need not be sorted: the
// builder detects disorder per row and leaves the result jumbled (lazy
// sort) when any row is unsorted.
func buildCSRParallelScoped[T Value](nr, nc int, weight []int, makeRowFn func(*rowAllowScope) func(i int, emit func(j int, x T))) *Matrix[T] {
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
	blocks := parallel.Blocks(nr, weight, func(lo, hi int) block {
		scope := &rowAllowScope{row: -1}
		defer scope.release()
		rowFn := makeRowFn(scope)
		// One emit closure per block, its row state reset per row: created
		// inside the row loop it would cost three heap objects a row.
		blk := block{lo: lo}
		if weight != nil {
			// The weight bounds the block's entries (a gather with repeated
			// columns may emit more, and append grows past it).
			blk.idx, blk.val = make([]int, 0, weight[hi]-weight[lo]), make([]T, 0, weight[hi]-weight[lo])
		}
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
