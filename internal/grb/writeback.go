package grb

import (
	"slices"

	"lagraph/internal/parallel"
)

// The one write-back engine: C⟨M, r⟩ ⊙= T, for a matrix and a vector (a
// store of one row) alike. T is the freshly computed result; the rule at one
// position is settle, written once. An operation runs its kernel through
// run, a block of rows at a time, and the kernel emits T's entries into a
// sink, which puts them where the dense-output rule says:
//
//   - toFold: an output that is bitmap/full, where T's entries are the only
//     positions the call changes (no mask, or merge semantics, and an
//     accumulator — or an assign's scalar, which covers its region), is
//     updated at T's entries where they land.
//   - toPlace: a call that visits every position (its input is bitmap or
//     full) into a bitmap/full output — or into a sparse one, when the mask
//     is dense, which turns bitmap here once — settles every position of C
//     in its own arrays, the gaps between T's entries included. It reads
//     what it reads at (i, j) before it writes (i, j), so C may be an
//     operand read at the same position, and its own mask (the allow
//     scatters the row first).
//   - toList: otherwise T is built as sorted rows, a temporary, and merged by
//     maskAccum — as is the T of an operation that reads C at positions
//     other than the one it writes (MxM, a gather out of C).
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

// foldAt is C(p) ⊙= x where C is bitmap or full: accum(C(p), x) where C
// holds an entry and an accumulator is given, x otherwise; *gained counts
// the entries added.
func foldAt[T Value](val []T, b []int8, gained *int, p int, x T, accum func(T, T) T) {
	if b == nil || b[p] != 0 {
		if accum != nil {
			x = accum(val[p], x)
		}
	} else {
		b[p] = 1
		*gained++
	}
	val[p] = x
}

// Where a sink puts T.
const (
	toList int8 = iota
	toPlace
	toFold
	toStore // toPlace or toFold into a full C, unmasked, no accumulator
)

// tShape is what a call's kernel declares about the T it emits.
type tShape struct {
	dense  bool // it visits every position of a row (its input is bitmap/full), or enough that the mask row is scattered
	full   bool // T holds an entry at every position
	covers bool // T holds one at every allowed position of the region (an assign's scalar)
	alias  bool // it reads C at positions other than the one it writes
	list   bool // T goes where maskAccum puts a list: C adopts it where nothing of C survives, else a bitmap/full C takes it in place
	cut    bool // it computes each position of a one-row C on its own: run cuts the row by columns, and a sparse mask is scattered
}

// writeBack is one call's C⟨M, r⟩ ⊙= T.
type writeBack[T Value] struct {
	C        *store[T]
	mk       Mask
	accum    func(T, T) T
	replace  bool
	inRegion func(i, j int) bool // nil: the call writes all of C
	mode     int8
	plain    bool       // in place into a full C, unmasked, no accumulator: a store
	bare     bool       // no mask, no region: T's entry is folded in as it is
	dense    bool       // the allow mode: scatter the mask row
	cut      bool       // tShape.cut
	t        store[T]   // toList: T
	rowLen   []int      // toList, more than one row: T's row lengths
	one      [1]sink[T] // the sink of a call run as one block
}

// output prepares C as the destination of a call whose T has shape sh,
// choosing the sink mode by the dense-output rule (see above).
func (C *store[T]) output(mk Mask, accum func(T, T) T, replace bool, inRegion func(i, j int) bool, sh tShape) *writeBack[T] {
	denseC := C.format != FormatSparse
	if sh.list {
		sh.dense = denseC && (accum != nil || mk.Exists() && !replace && C.nvalsUpper() > 0)
	}
	wb := getWriteBack[T]()
	wb.C, wb.mk, wb.accum, wb.replace, wb.inRegion, wb.dense, wb.cut = C, mk, accum, replace, inRegion, sh.dense, sh.cut
	if sh.cut {
		wb.dense = mk.Exists() && !mk.src.maskIsDense()
	}
	switch {
	case sh.alias:
	case denseC && (!mk.Exists() || !replace) && (accum != nil || sh.covers):
		wb.mode = toFold
	case sh.dense && (denseC || mk.dense() && BitmapEnabled() && (C.nr == 1 || C.nr*C.nc <= maxDenseEntries)):
		wb.mode = toPlace
		switch {
		case denseC:
		case C.nvalsUpper() == 0:
			*C = store[T]{nr: C.nr, nc: C.nc, format: FormatBitmap, val: make([]T, C.nr*C.nc), b: make([]int8, C.nr*C.nc)}
		default:
			C.Wait()
			C.sparseToBitmap()
		}
		// A full C that may lose an entry turns bitmap first: blocks of rows
		// run in parallel, so it cannot turn mid-call.
		if C.format == FormatFull && (!sh.full || mk.Exists() && replace) {
			C.fullToBitmap()
		}
	}
	wb.bare = !mk.Exists() && inRegion == nil
	wb.plain = wb.mode != toList && C.format == FormatFull && wb.bare && accum == nil
	if wb.mode == toList {
		wb.t = store[T]{nr: C.nr, nc: C.nc, ptr: emptyPtr(C.nr)}
		if C.nr > 1 {
			wb.rowLen = make([]int, C.nr+1)
		}
	}
	return wb
}

// sink receives one block's rows of T.
type sink[T Value] struct {
	wb      *writeBack[T]
	mode    int8 // wb.mode, or toStore where wb.plain
	bare    bool // wb.bare
	cv      []T  // C's values and bitmap, in place
	cb      []int8
	accum   func(T, T) T
	a       allow
	lo, hi  int // the columns it settles: a piece of a cut row, else all
	i       int // the open row, -1 before the first
	base    int // i·nc
	next    int // toPlace: the first column of row i not yet settled
	start   int // toList: where row i begins in idx
	last    int
	idx     []int
	val     []T
	jumbled bool
	gained  int // entries C gained (toPlace, toFold)
}

// open starts row i, finishing the one before.
func (o *sink[T]) open(i int) {
	o.shut()
	o.i, o.base, o.next, o.start, o.last = i, i*o.wb.C.nc, o.lo, len(o.idx), -1
	o.a.load(i, o.lo, o.hi)
}

// ok reports whether the mask allows column j of the open row.
func (o *sink[T]) ok(j int) bool { return o.a.ok(o.i, j) }

// emit hands over T(i, j) = x; in a row, columns ascend, except toList.
func (o *sink[T]) emit(j int, x T) {
	switch o.mode {
	case toStore:
		o.cv[o.base+j] = x
	case toList:
		if j < o.last {
			o.jumbled = true
		}
		o.last = j
		o.idx, o.val = append(o.idx, j), append(o.val, x)
	case toFold:
		foldAt(o.cv, o.cb, &o.gained, o.base+j, x, o.accum)
	default:
		o.settleTo(j)
		o.next = j + 1
		if o.bare {
			foldAt(o.cv, o.cb, &o.gained, o.base+j, x, o.accum)
		} else {
			o.put(j, x, true)
		}
	}
}

// shut finishes the open row: its length, or the positions after its last
// entry.
func (o *sink[T]) shut() {
	switch {
	case o.i < 0:
	case o.mode == toList:
		if o.wb.rowLen != nil {
			o.wb.rowLen[o.i] = len(o.idx) - o.start
		}
	case o.mode == toPlace:
		o.settleTo(o.hi)
	}
}

// settleTo settles the positions of the open row before column j, where T
// holds nothing.
func (o *sink[T]) settleTo(j int) {
	var zero T
	for ; o.next < j; o.next++ {
		o.put(o.next, zero, false)
	}
}

// put settles C(i, j) in place, where T holds x (tok) or nothing.
func (o *sink[T]) put(j int, x T, tok bool) {
	wb, p, cv, cb := o.wb, o.base+j, o.cv, o.cb
	cok := cb == nil || cb[p] != 0
	switch settle(wb.mk.src == nil || o.a.ok(o.i, j), wb.replace, wb.inRegion == nil || wb.inRegion(o.i, j), o.accum != nil, cok, tok) {
	case combined:
		cv[p] = o.accum(cv[p], x)
	case taken:
		cv[p] = x
		if !cok {
			cb[p] = 1
			o.gained++
		}
	case gone:
		if cok {
			var zero T
			cb[p], cv[p] = 0, zero
			o.gained--
		}
	}
}

// run computes T a block of rows at a time — rows(lo, hi, o) opens each
// row of [lo, hi) in turn and emits its entries — and leaves it where the
// sinks put it. weight cuts the blocks (see parallel.Blocks); hint bounds
// T's entries for a single block, the one-row case, so its list is sized
// once.
//
// A one-row C whose kernel computes each position on its own (tShape.cut)
// is cut by columns instead: rows(lo, hi, o) gets columns [lo, hi) of row
// 0, already open. The pieces of the row run concurrently, so a piece
// settles only its own columns and loads only those of a scattered mask,
// and what the pieces gained or listed is summed after they return.
func run[T Value](wb *writeBack[T], weight []int, hint int, rows func(lo, hi int, o *sink[T])) {
	n := wb.C.nr
	if wb.cut {
		n = wb.C.nc
	}
	blocks := wb.one[:]
	if parallel.Threads(n) == 1 {
		wb.sink(&blocks[0], 0, n, hint)
		if n > 0 {
			rows(0, n, &blocks[0])
		}
		blocks[0].done()
	} else {
		blocks = parallel.Blocks(n, weight, func(lo, hi int) sink[T] {
			var o sink[T]
			wb.sink(&o, lo, hi, 0)
			if weight != nil && wb.mode == toList {
				o.idx, o.val = make([]int, 0, weight[hi]-weight[lo]), make([]T, 0, weight[hi]-weight[lo])
			}
			rows(lo, hi, &o)
			o.done()
			return o
		})
	}
	if wb.mode != toList {
		for b := range blocks {
			wb.C.nvalsB += blocks[b].gained
		}
		return
	}
	t := &wb.t
	jumbled := false
	if len(blocks) == 1 {
		t.idx, t.val, jumbled = blocks[0].idx, blocks[0].val, blocks[0].jumbled
	} else {
		n := 0
		for b := range blocks {
			n += len(blocks[b].idx)
		}
		t.idx, t.val = make([]int, 0, n), make([]T, 0, n)
		for b := range blocks {
			t.idx, t.val = append(t.idx, blocks[b].idx...), append(t.val, blocks[b].val...)
			jumbled = jumbled || blocks[b].jumbled
		}
	}
	if wb.rowLen != nil {
		parallel.ExclusiveScan(wb.rowLen)
		t.ptr = wb.rowLen
	}
	t.syncRow()
	if jumbled {
		t.markJumbled()
	}
}

// sink prepares o, zero, as the sink of rows [lo, hi) of the call, or —
// cut — of columns [lo, hi) of its row, opened; hint sizes a list.
func (wb *writeBack[T]) sink(o *sink[T], lo, hi, hint int) {
	o.wb, o.i, o.a, o.lo, o.hi = wb, -1, wb.mk.allowFor(wb.C.nc, wb.dense), 0, wb.C.nc
	o.mode, o.bare, o.cv, o.cb, o.accum = wb.mode, wb.bare, wb.C.val, wb.C.b, wb.accum
	if wb.plain {
		o.mode = toStore
	}
	if wb.mode == toList && hint > 0 {
		o.idx, o.val = make([]int, 0, hint), make([]T, 0, hint)
	}
	if wb.cut {
		o.lo, o.hi = lo, hi
		o.open(0)
	}
}

// reserve makes room in a list for n more entries of the open row.
func (o *sink[T]) reserve(n int) {
	if o.mode == toList {
		o.idx, o.val = slices.Grow(o.idx, n), slices.Grow(o.val, n)
	}
}

// done finishes a block: its last row, and the slab it borrowed.
func (o *sink[T]) done() {
	o.shut()
	o.a.release()
}

// commit finishes the call: in place, the format policy applied (a complete
// bitmap becomes full, a thin one sparse); a temporary T is merged into C.
func (wb *writeBack[T]) commit() {
	if wb.mode == toList {
		wb.C.maskAccum(wb.mk, wb.accum, &wb.t, wb.replace, true, wb.inRegion)
	} else {
		wb.C.conform()
	}
	putWriteBack(wb)
}

// adopt makes C the store t is, t's arrays included. A sparse one-row t
// may point its row pointer into itself (syncRow), and a write-back's T is
// recycled: C points its own.
func (C *store[T]) adopt(t *store[T]) {
	*C = *t
	if C.nr == 1 && C.format == FormatSparse {
		C.row = [2]int{0, len(C.idx)}
		C.ptr = C.row[:]
	}
}

// maskAccum is C⟨M, r⟩ ⊙= t for a t already computed. region, when
// non-nil, is the set of positions an assign writes; every other call
// writes all of C.
func (C *store[T]) maskAccum(mk Mask, accum func(T, T) T, t *store[T], replace, tMasked bool, region func(i, j int) bool) {
	// No accumulator and nothing of C survives outside t: C becomes t. That
	// holds without a mask, and for a pre-masked t when C's entries outside
	// the mask go (replace) or there are none, pending included (TC's
	// C⟨s(L)⟩ = L·Uᵀ into a new C).
	if accum == nil && region == nil && (!mk.Exists() || tMasked && (replace || C.nvalsUpper() == 0)) {
		C.adopt(t)
		C.conform()
		return
	}
	t.Wait()
	C.Wait()
	wb := C.output(mk, accum, replace, region, tShape{dense: t.format != FormatSparse || C.format != FormatSparse, full: t.format == FormatFull})
	if wb.mode != toList {
		// t's entries, into C's own arrays.
		run(wb, t.rowPtr(), 0, func(lo, hi int, o *sink[T]) {
			for i := lo; i < hi; i++ {
				o.open(i)
				t.rowIter(i, func(j int, x T) {
					if wb.mode == toPlace || o.ok(j) {
						o.emit(j, x)
					}
				})
			}
		})
		putWriteBack(wb)
		C.conform()
		return
	}
	// Both sparse (a thin t for a sparse C: merge the lists): the sorted
	// merge, row by row.
	t.ConvertTo(FormatSparse)
	run(wb, nil, 0, func(lo, hi int, o *sink[T]) {
		for i := lo; i < hi; i++ {
			o.open(i)
			cIdx, cVal := C.idx[C.ptr[i]:C.ptr[i+1]], C.val[C.ptr[i]:C.ptr[i+1]]
			tIdx, tVal := t.idx[t.ptr[i]:t.ptr[i+1]], t.val[t.ptr[i]:t.ptr[i+1]]
			unionWalk(cIdx, tIdx, func(j, p, q int) {
				switch settle(o.ok(j), replace, region == nil || region(i, j), accum != nil, p >= 0, q >= 0) {
				case kept:
					o.emit(j, cVal[p])
				case taken:
					o.emit(j, tVal[q])
				case combined:
					o.emit(j, accum(cVal[p], tVal[q]))
				}
			})
		}
	})
	C.adopt(&wb.t)
	putWriteBack(wb)
	C.conform()
}
