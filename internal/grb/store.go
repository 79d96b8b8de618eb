package grb

import (
	"slices"
	"sort"

	"lagraph/internal/parallel"
)

// store is the one storage layout of a Matrix and a Vector: an nr-by-nc
// table held by row, in one of three formats, with the pending work of the
// non-blocking mode. A Vector is a store of one row (nr = 1, its length in
// nc), so the format conversions, the format policy, pending work and
// element access are written once, below, for both.
//
// Pending work comes in two kinds, assembled by Wait: pending operations
// (insertions and tombstones not yet part of the CSR structure) and
// jumbled rows (column indices within a row not yet sorted — the lazy
// sort).
type store[T Value] struct {
	nr, nc int
	format Format

	// sparse (CSR): ptr has nr+1 entries; idx/val hold ptr[nr] entries.
	ptr []int
	idx []int
	val []T // also the dense value array for bitmap/full (len nr*nc)

	// bitmap: b[i*nc+j] != 0 marks presence; nvalsB counts set cells.
	b      []int8
	nvalsB int

	jumbled bool
	pend    []pending[T] // assembled in call order: the last operation on a position wins

	row [2]int // the row pointer of a one-row store whose list a kernel built (syncRow)
}

// emptyRow is the row pointer every empty one-row store starts from. Row
// pointers are replaced, never written in place, so it can be shared, and
// making a vector allocates only the vector.
var emptyRow [2]int

// emptyPtr is the row pointer of an empty sparse store of nr rows.
func emptyPtr(nr int) []int {
	if nr == 1 {
		return emptyRow[:]
	}
	return make([]int, nr+1)
}

// syncRow keeps a sparse one-row store's row pointer at [0, len(idx)]. The
// vector kernels build a result's entry list directly and leave its row
// pointer to this, which conform and Wait call. A store whose pointer is
// already right (every matrix) is only read, so it stays safe to call on
// a store other goroutines are reading.
func (s *store[T]) syncRow() {
	if s.nr == 1 && s.format == FormatSparse && (len(s.ptr) != 2 || s.ptr[1] != len(s.idx)) {
		s.row = [2]int{0, len(s.idx)}
		s.ptr = s.row[:]
	}
}

// shape returns (rows, cols); a vector is 1 by its length.
func (s *store[T]) shape() (int, int) { return s.nr, s.nc }

// Format returns the current storage format.
func (s *store[T]) Format() Format { return s.format }

// Jumbled reports whether the entries of a row may be unsorted (the lazy
// sort outstanding). Tests use it to observe the lazy sort.
func (s *store[T]) Jumbled() bool { return s.jumbled }

// PendingTuples reports the number of unassembled operations (insertions
// plus tombstones).
func (s *store[T]) PendingTuples() int { return len(s.pend) }

// NVals returns the number of stored entries, finishing pending work first
// (as GrB_Matrix_nvals does).
func (s *store[T]) NVals() int {
	s.Wait()
	return s.nvalsUpper()
}

// nvalsUpper bounds NVals without assembling pending work; it is NVals on
// a finished store.
func (s *store[T]) nvalsUpper() int {
	switch s.format {
	case FormatSparse:
		return s.ptr[s.nr] + len(s.pend)
	case FormatBitmap:
		return s.nvalsB
	default:
		return s.nr * s.nc
	}
}

// rowPtr is a sparse store's row pointer, nil for bitmap/full: the weight
// that cuts a row-parallel build over its rows into blocks of equal entries.
func (s *store[T]) rowPtr() []int {
	if s.format != FormatSparse {
		return nil
	}
	return s.ptr
}

// Clear removes all entries, reverting to empty sparse storage.
func (s *store[T]) Clear() {
	*s = store[T]{nr: s.nr, nc: s.nc, ptr: emptyPtr(s.nr)}
}

// dup returns a deep copy of the finished store. Pending work is finished
// first so the copy is clean (matching GrB_Matrix_dup, which operates on
// the finished matrix).
func (s *store[T]) dup() store[T] {
	s.Wait()
	return store[T]{
		nr: s.nr, nc: s.nc, format: s.format, nvalsB: s.nvalsB,
		ptr: append([]int(nil), s.ptr...), idx: append([]int(nil), s.idx...),
		val: append([]T(nil), s.val...), b: append([]int8(nil), s.b...),
	}
}

// ---------------------------------------------------------------------------
// element access

// SetElement stores A(i,j) = x. On a sparse matrix or vector the write is
// a pending tuple (non-blocking mode) that Wait assembles, so the CSR arrays
// are never written in place and a write can never overtake a pending
// tombstone on the same position.
func (s *store[T]) SetElement(x T, i, j int) error {
	if i < 0 || i >= s.nr || j < 0 || j >= s.nc {
		return errf(InvalidIndex, "SetElement: (%d,%d) outside %dx%d", i, j, s.nr, s.nc)
	}
	p := i*s.nc + j
	switch s.format {
	case FormatFull:
		s.val[p] = x
	case FormatBitmap:
		if s.b[p] == 0 {
			s.b[p] = 1
			s.nvalsB++
		}
		s.val[p] = x
	default:
		s.pend = append(s.pend, pending[T]{i: i, j: j, x: x})
	}
	return nil
}

// RemoveElement deletes A(i,j) if present. On a sparse matrix or vector
// the deletion becomes a tombstone among the pending operations: the CSR
// arrays are never touched (a snapshot shares them), and Wait resolves the
// tombstone against the operations before and after it on the same
// position.
func (s *store[T]) RemoveElement(i, j int) error {
	if i < 0 || i >= s.nr || j < 0 || j >= s.nc {
		return errf(InvalidIndex, "RemoveElement: (%d,%d) outside %dx%d", i, j, s.nr, s.nc)
	}
	p := i*s.nc + j
	switch s.format {
	case FormatFull:
		// A full store loses an entry: demote to bitmap first.
		s.fullToBitmap()
		fallthrough
	case FormatBitmap:
		if s.b[p] != 0 {
			s.b[p] = 0
			var zero T
			s.val[p] = zero
			s.nvalsB--
		}
	default:
		s.pend = append(s.pend, pending[T]{i: i, j: j, del: true})
	}
	return nil
}

// ExtractElement returns A(i,j), or ErrNoValue if no entry is stored there.
func (s *store[T]) ExtractElement(i, j int) (T, error) {
	var zero T
	if i < 0 || i >= s.nr || j < 0 || j >= s.nc {
		return zero, errf(InvalidIndex, "ExtractElement: (%d,%d) outside %dx%d", i, j, s.nr, s.nc)
	}
	if s.format != FormatSparse {
		// By hand, not through get: this is the per-vertex degree lookup
		// of every BFS step, and the call saved is a third of its cost.
		if p := i*s.nc + j; s.denseHas(p) {
			return s.val[p], nil
		}
		return zero, ErrNoValue
	}
	if len(s.pend) > 0 {
		s.Wait()
	}
	if p, ok := s.findSparse(i, j); ok {
		return s.val[p], nil
	}
	return zero, ErrNoValue
}

// get returns (value, present) at (i,j) of a store without pending
// operations: O(1) for bitmap/full, a search of row i for sparse. The
// value means something only where present.
func (s *store[T]) get(i, j int) (x T, ok bool) {
	if s.format != FormatSparse {
		p := i*s.nc + j
		return s.val[p], s.denseHas(p)
	}
	if p, ok := s.findSparse(i, j); ok {
		return s.val[p], true
	}
	return x, false
}

// findSparse locates entry (i,j) in the CSR structure, returning its
// position. Binary search when the row is sorted, linear when jumbled.
func (s *store[T]) findSparse(i, j int) (int, bool) {
	lo, hi := s.ptr[i], s.ptr[i+1]
	if s.jumbled {
		p := slices.Index(s.idx[lo:hi], j)
		return lo + p, p >= 0
	}
	p, ok := slices.BinarySearch(s.idx[lo:hi], j)
	return lo + p, ok
}

// denseHas reports whether cell p (= i*nc + j) of a bitmap or full store
// holds an entry.
func (s *store[T]) denseHas(p int) bool { return s.format == FormatFull || s.b[p] != 0 }

// ---------------------------------------------------------------------------
// Wait: assemble pending work (lazy sort, pending operations)

// Wait brings the matrix or vector to a finished state: jumbled rows are
// sorted, and the pending operations are merged into the CSR structure. It
// is idempotent and cheap when nothing is pending.
func (s *store[T]) Wait() {
	if s.format != FormatSparse {
		return
	}
	s.syncRow()
	if s.jumbled {
		s.sortRows()
	}
	if log := s.pend; len(log) > 0 {
		s.pend = nil
		s.assemble(tuples[T]{log: log}, nil)
	}
}

func (s *store[T]) sortRows() {
	if parallel.Threads(s.nr) == 1 {
		// Inline, without the closure a fan-out takes: this is every
		// vector's sort.
		s.sortBlock(0, s.nr)
	} else {
		parallel.Blocks(s.nr, s.ptr, func(lo, hi int) struct{} {
			s.sortBlock(lo, hi)
			return struct{}{}
		})
	}
	s.jumbled = false
}

// sortBlock sorts the unsorted rows in [lo, hi) with one sorter: sort.Sort
// takes an interface, so a sorter made per row would cost a heap object a
// row, and a block whose rows are all sorted costs none.
func (s *store[T]) sortBlock(lo, hi int) {
	var ps *pairSorter[T]
	for i := lo; i < hi; i++ {
		a, b := s.ptr[i], s.ptr[i+1]
		if b-a > 1 && !sort.IntsAreSorted(s.idx[a:b]) {
			if ps == nil {
				ps = &pairSorter[T]{}
			}
			ps.idx, ps.val = s.idx[a:b], s.val[a:b]
			sort.Sort(ps)
		}
	}
}

// tuples is what assemble takes in: a build's arrays (rows nil when every
// tuple is in row 0), or a pending log.
type tuples[T Value] struct {
	rows, cols []int
	vals       []T
	log        []pending[T]
}

// row is tuple k's row.
func (in *tuples[T]) row(k int) int {
	switch {
	case in.log != nil:
		return in.log[k].i
	case in.rows != nil:
		return in.rows[k]
	}
	return 0
}

// at is tuple k's column and value. A tombstone's column is ^j, which
// keeps its place among j's tuples (col) and marks the deletion.
func (in *tuples[T]) at(k int) (int, T) {
	if in.log == nil {
		return in.cols[k], in.vals[k]
	}
	op := in.log[k]
	if op.del {
		return ^op.j, op.x
	}
	return op.j, op.x
}

// col is the column of an assembled tuple, a tombstone's included.
func col(j int) int { return max(j, ^j) }

// assemble merges tuples into the store: the one build behind Wait,
// MatrixFromTuples, VectorFromTuples and AssignVector's index list. The
// tuples are bucketed by row and sorted stably by column within a row, so
// each position's tuples form a run in input order. A run folds to one
// operation — dup combines its inserts in order (nil: the last wins), a
// tombstone deletes and restarts the run — which replaces, adds or removes
// the base's entry.
func (s *store[T]) assemble(in tuples[T], dup func(T, T) T) {
	n := len(in.cols) + len(in.log)
	ptr := make([]int, s.nr+2)
	for k := 0; k < n; k++ {
		ptr[in.row(k)+2]++
	}
	for i := 2; i < len(ptr); i++ {
		ptr[i] += ptr[i-1] // ptr[i+1]: row i's start
	}
	idx, val := make([]int, n), make([]T, n)
	for k := 0; k < n; k++ {
		b := in.row(k) + 1 // row i's next slot is ptr[i+1]
		idx[ptr[b]], val[ptr[b]] = in.at(k)
		ptr[b]++
	}
	ptr = ptr[:s.nr+1] // row i's end is ptr[i+1]: the buckets' row pointer
	sortRuns := func(lo, hi int) struct{} {
		for i := lo; i < hi; i++ {
			if ptr[i+1]-ptr[i] > 1 {
				sortRun(idx[ptr[i]:ptr[i+1]], val[ptr[i]:ptr[i+1]])
			}
		}
		return struct{}{}
	}
	if parallel.Threads(n/tuplesPerIter) == 1 {
		sortRuns(0, s.nr)
	} else {
		parallel.Blocks(s.nr, ptr, sortRuns)
	}
	// Fold each run and merge it into the base. The base is never written
	// (a snapshot shares it): the merge goes to fresh arrays, or, over an
	// empty base, compacts the runs where they lie. CSR rows are
	// contiguous, so whatever lies between two positions — the rest of a
	// row, a run of untouched rows — is copied in one piece, and a row's
	// new start is its old one shifted by the entries gained before it.
	newIdx, newVal := idx[:0], val[:0]
	if s.ptr[s.nr] > 0 {
		newIdx, newVal = make([]int, 0, s.ptr[s.nr]+n), make([]T, 0, s.ptr[s.nr]+n)
	}
	p, gained := 0, 0 // p: the first base entry not yet copied
	for i, q := 0, 0; i < s.nr; i++ {
		end := ptr[i+1]
		ptr[i] = s.ptr[i] + gained
		for q < end {
			j, x, del := col(idx[q]), val[q], idx[q] < 0
			for q++; q < end && col(idx[q]) == j; q++ {
				if dup != nil && !del && idx[q] >= 0 {
					x = dup(x, val[q])
				} else {
					x, del = val[q], idx[q] < 0
				}
			}
			at, present := slices.BinarySearch(s.idx[s.ptr[i]:s.ptr[i+1]], j)
			at += s.ptr[i]
			newIdx, newVal = append(newIdx, s.idx[p:at]...), append(newVal, s.val[p:at]...)
			p = at
			if present {
				p++
				gained--
			}
			if !del {
				newIdx, newVal = append(newIdx, j), append(newVal, x)
				gained++
			}
		}
	}
	newIdx, newVal = append(newIdx, s.idx[p:s.ptr[s.nr]]...), append(newVal, s.val[p:s.ptr[s.nr]]...)
	ptr[s.nr] = s.ptr[s.nr] + gained
	s.ptr, s.idx, s.val = ptr, newIdx, newVal
}

// markJumbled flags the rows as possibly unsorted; if the lazy sort is
// disabled globally, the sort happens immediately instead.
func (s *store[T]) markJumbled() {
	s.jumbled = true
	if !LazySortEnabled() {
		s.Wait()
	}
}

// ---------------------------------------------------------------------------
// format conversions

// ConvertTo forces a storage format. Converting a sparse matrix with more
// entries than MaxDenseEntries to bitmap/full is the caller's
// responsibility to avoid; the conversion itself is always honoured, except
// that a matrix or vector with holes cannot become full.
func (s *store[T]) ConvertTo(f Format) {
	s.Wait()
	switch {
	case f == s.format:
	case f == FormatBitmap && s.format == FormatSparse:
		s.sparseToBitmap()
	case f == FormatBitmap && s.format == FormatFull:
		s.fullToBitmap()
	case f == FormatSparse && s.format == FormatBitmap:
		s.bitmapToSparse()
	case f == FormatSparse && s.format == FormatFull:
		s.fullToSparse()
	case f == FormatFull && s.nvalsUpper() == s.nr*s.nc:
		if s.format == FormatSparse {
			s.sparseToBitmap()
		}
		s.b = nil
		s.format = FormatFull
	}
}

func (s *store[T]) sparseToBitmap() {
	size := s.nr * s.nc
	b := make([]int8, size)
	val := make([]T, size)
	parallel.For(s.nr, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			base := i * s.nc
			for p := s.ptr[i]; p < s.ptr[i+1]; p++ {
				b[base+s.idx[p]] = 1
				val[base+s.idx[p]] = s.val[p]
			}
		}
	})
	s.nvalsB = s.ptr[s.nr]
	s.b, s.val = b, val
	s.ptr, s.idx = nil, nil
	s.format = FormatBitmap
}

func (s *store[T]) fullToBitmap() {
	size := s.nr * s.nc
	b := make([]int8, size)
	for i := range b {
		b[i] = 1
	}
	s.b = b
	s.nvalsB = size
	s.format = FormatBitmap
}

// fullToSparse keeps the value array (row-major order is CSR order when
// every cell is present) and only writes the structure around it.
func (s *store[T]) fullToSparse() {
	ptr := make([]int, s.nr+1)
	idx := make([]int, s.nr*s.nc)
	parallel.For(s.nr, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ptr[i+1] = (i + 1) * s.nc
			for j := 0; j < s.nc; j++ {
				idx[i*s.nc+j] = j
			}
		}
	})
	s.ptr, s.idx = ptr, idx
	s.format = FormatSparse
}

func (s *store[T]) bitmapToSparse() {
	counts := make([]int, s.nr+1)
	parallel.For(s.nr, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c := 0
			base := i * s.nc
			for j := 0; j < s.nc; j++ {
				if s.b[base+j] != 0 {
					c++
				}
			}
			counts[i] = c
		}
	})
	nnz := parallel.ExclusiveScan(counts)
	idx := make([]int, nnz)
	val := make([]T, nnz)
	parallel.For(s.nr, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			w := counts[i]
			base := i * s.nc
			for j := 0; j < s.nc; j++ {
				if s.b[base+j] != 0 {
					idx[w] = j
					val[w] = s.val[base+j]
					w++
				}
			}
		}
	})
	s.ptr, s.idx, s.val = counts, idx, val
	s.b = nil
	s.nvalsB = 0
	s.format = FormatSparse
}

// conform applies the automatic format-switching policy to an operation
// result: dense-enough sparse results become bitmap (or full when every
// cell is present); sparse-enough bitmaps go back to CSR.
func (s *store[T]) conform() {
	s.syncRow()
	size := int64(s.nr) * int64(s.nc)
	switch s.format {
	case FormatSparse:
		if wantBitmap(s.nvalsUpper(), s.nr, s.nc) {
			s.Wait()
			if int64(s.ptr[s.nr]) == size {
				s.ConvertTo(FormatFull)
			} else {
				s.sparseToBitmap()
			}
		}
	case FormatBitmap:
		if int64(s.nvalsB) == size && size > 0 {
			s.b = nil
			s.format = FormatFull
		} else if wantSparse(s.nvalsB, size) || !BitmapEnabled() {
			s.bitmapToSparse()
		}
	}
}

// ---------------------------------------------------------------------------
// sorting helpers

type pairSorter[T any] struct {
	idx []int
	val []T
}

func (s *pairSorter[T]) Len() int           { return len(s.idx) }
func (s *pairSorter[T]) Less(a, b int) bool { return s.idx[a] < s.idx[b] }
func (s *pairSorter[T]) Swap(a, b int) {
	s.idx[a], s.idx[b] = s.idx[b], s.idx[a]
	s.val[a], s.val[b] = s.val[b], s.val[a]
}

// tuplesPerIter is the number of tuples assemble counts as one unit of
// parallel work (a log of a few thousand operations sorts faster than a
// fork returns); insertionRun is the longest run sortRun sorts by insertion.
const tuplesPerIter, insertionRun = 32, 32

// sortRun sorts a row's run of assembled tuples stably by column, a
// tombstone's (^j) included. Runs are mostly short (a build's row holds
// about the edge factor in tuples); insertion sorts them faster: 101 ms
// against sort.Stable's 123 ms in BenchmarkMatrixFromTuples on a 2-vCPU Xeon.
func sortRun[T Value](idx []int, val []T) {
	if len(idx) > insertionRun {
		sort.Stable(&runSorter[T]{pairSorter[T]{idx, val}})
		return
	}
	for a := 1; a < len(idx); a++ {
		j, x, b := idx[a], val[a], a
		for ; b > 0 && col(idx[b-1]) > col(j); b-- {
			idx[b], val[b] = idx[b-1], val[b-1]
		}
		idx[b], val[b] = j, x
	}
}

type runSorter[T any] struct{ pairSorter[T] }

func (s *runSorter[T]) Less(a, b int) bool { return col(s.idx[a]) < col(s.idx[b]) }
