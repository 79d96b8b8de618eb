package grb

import (
	"cmp"
	"slices"
	"sort"

	"lagraph/internal/parallel"
)

// Matrix is a generic GraphBLAS matrix held by row. Unlike the opaque
// GrB_Matrix, its accessors expose enough structure for the LAGraph layer
// to stay honest about cost, but algorithm code should treat it through the
// package's operations.
//
// A Matrix may carry two kinds of pending work, assembled by Wait: pending
// operations (insertions and tombstones not yet part of the CSR structure)
// and jumbled rows (column indices within a row not yet sorted — the lazy
// sort).
type Matrix[T Value] struct {
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
}

// NewMatrix returns an empty sparse nr-by-nc matrix.
func NewMatrix[T Value](nr, nc int) (*Matrix[T], error) {
	if nr < 0 || nc < 0 {
		return nil, errf(InvalidValue, "NewMatrix: negative dimension %d x %d", nr, nc)
	}
	return &Matrix[T]{nr: nr, nc: nc, format: FormatSparse, ptr: make([]int, nr+1)}, nil
}

// MustMatrix is NewMatrix for callers with known-good dimensions.
func MustMatrix[T Value](nr, nc int) *Matrix[T] {
	m, err := NewMatrix[T](nr, nc)
	if err != nil {
		panic(err)
	}
	return m
}

// NRows returns the number of rows.
func (m *Matrix[T]) NRows() int { return m.nr }

// NCols returns the number of columns.
func (m *Matrix[T]) NCols() int { return m.nc }

// Dims returns (rows, cols).
func (m *Matrix[T]) Dims() (int, int) { return m.nr, m.nc }

// Format returns the current storage format.
func (m *Matrix[T]) Format() Format { return m.format }

// Jumbled reports whether any row's indices may be unsorted (lazy sort
// outstanding). Tests use it to observe the lazy sort.
func (m *Matrix[T]) Jumbled() bool { return m.jumbled }

// PendingTuples reports the number of unassembled operations (insertions
// plus tombstones).
func (m *Matrix[T]) PendingTuples() int { return len(m.pend) }

// NVals returns the number of stored entries, finishing pending work first
// (as GrB_Matrix_nvals does).
func (m *Matrix[T]) NVals() int {
	m.Wait()
	switch m.format {
	case FormatSparse:
		return m.ptr[m.nr]
	case FormatBitmap:
		return m.nvalsB
	default:
		return m.nr * m.nc
	}
}

// rowPtr is a sparse matrix's row pointer, nil for bitmap/full: the weight
// that cuts a row-parallel build over m's rows into blocks of equal entries.
func (m *Matrix[T]) rowPtr() []int {
	if m.format != FormatSparse {
		return nil
	}
	return m.ptr
}

// nvalsUpper bounds NVals without assembling pending work.
func (m *Matrix[T]) nvalsUpper() int {
	switch m.format {
	case FormatSparse:
		return m.ptr[m.nr] + len(m.pend)
	case FormatBitmap:
		return m.nvalsB
	default:
		return m.nr * m.nc
	}
}

// Clear removes all entries, reverting to empty sparse storage.
func (m *Matrix[T]) Clear() {
	m.format = FormatSparse
	m.ptr = make([]int, m.nr+1)
	m.idx, m.val, m.b = nil, nil, nil
	m.nvalsB = 0
	m.jumbled = false
	m.pend = nil
}

// Dup returns a deep copy. Pending work is finished first so the copy is
// clean (matching GrB_Matrix_dup, which operates on the finished matrix).
func (m *Matrix[T]) Dup() *Matrix[T] {
	m.Wait()
	c := &Matrix[T]{nr: m.nr, nc: m.nc, format: m.format, nvalsB: m.nvalsB}
	c.ptr = append([]int(nil), m.ptr...)
	c.idx = append([]int(nil), m.idx...)
	c.val = append([]T(nil), m.val...)
	c.b = append([]int8(nil), m.b...)
	return c
}

// Snapshot returns a copy-on-write clone of a sparse matrix. The clone
// shares the receiver's CSR arrays and pending operations without copying;
// the shared list is capacity-clipped, so an operation either side buffers
// later (SetElement and RemoveElement never write a sparse matrix's arrays)
// can never land in the other's list, and the receiver — and every other
// snapshot of it — keeps reading a stable structure. The first Wait on the
// clone merges both into fresh private arrays.
//
// The receiver must be sparse and must not be jumbled; its pending
// operations are shared. Snapshot does not call Wait itself because the
// receiver may be concurrently read by other goroutines.
func (m *Matrix[T]) Snapshot() (*Matrix[T], error) {
	if m.format != FormatSparse || m.jumbled {
		return nil, errf(InvalidValue, "Snapshot: matrix is not sparse, or jumbled (format %v)", m.format)
	}
	n := len(m.pend)
	return &Matrix[T]{
		nr: m.nr, nc: m.nc, format: FormatSparse,
		ptr: m.ptr, idx: m.idx, val: m.val,
		pend: m.pend[:n:n],
	}, nil
}

// Advance moves a snapshot's base past a prefix of its pending operations:
// done must be the finished assembly of the receiver's arrays and its first
// k pending operations (a Wait on an earlier Snapshot of it, say). The
// receiver shares done's arrays and keeps operations k… pending, so what it
// assembles to is unchanged.
func (m *Matrix[T]) Advance(done *Matrix[T], k int) error {
	if m.format != FormatSparse || done.format != FormatSparse || done.jumbled || len(done.pend) > 0 || done.nr != m.nr || done.nc != m.nc {
		return errf(InvalidValue, "Advance: needs a sparse receiver and a finished sparse %dx%d base", m.nr, m.nc)
	}
	if k < 0 || k > len(m.pend) {
		return errf(InvalidIndex, "Advance: prefix %d outside %d pending operations", k, len(m.pend))
	}
	m.ptr, m.idx, m.val = done.ptr, done.idx, done.val
	m.pend = m.pend[k:]
	return nil
}

// SetElement stores A(i,j) = x. On a sparse matrix the store is a pending
// tuple (non-blocking mode) that Wait assembles, so the CSR arrays are never
// written in place and a store can never overtake a pending tombstone on
// the same position.
func (m *Matrix[T]) SetElement(x T, i, j int) error {
	if i < 0 || i >= m.nr || j < 0 || j >= m.nc {
		return errf(InvalidIndex, "SetElement: (%d,%d) outside %dx%d", i, j, m.nr, m.nc)
	}
	switch m.format {
	case FormatFull:
		m.val[i*m.nc+j] = x
	case FormatBitmap:
		p := i*m.nc + j
		if m.b[p] == 0 {
			m.b[p] = 1
			m.nvalsB++
		}
		m.val[p] = x
	default:
		m.pend = append(m.pend, pending[T]{i: i, j: j, x: x})
	}
	return nil
}

// RemoveElement deletes A(i,j) if present. On a sparse matrix the deletion
// becomes a tombstone among the pending operations: the CSR arrays are
// never touched (a snapshot shares them), and Wait resolves the tombstone
// against the operations before and after it on the same position.
func (m *Matrix[T]) RemoveElement(i, j int) error {
	if i < 0 || i >= m.nr || j < 0 || j >= m.nc {
		return errf(InvalidIndex, "RemoveElement: (%d,%d) outside %dx%d", i, j, m.nr, m.nc)
	}
	switch m.format {
	case FormatFull:
		// A full matrix loses an entry: demote to bitmap first.
		m.fullToBitmap()
		fallthrough
	case FormatBitmap:
		p := i*m.nc + j
		if m.b[p] != 0 {
			m.b[p] = 0
			var zero T
			m.val[p] = zero
			m.nvalsB--
		}
	default:
		m.pend = append(m.pend, pending[T]{i: i, j: j, del: true})
	}
	return nil
}

// ExtractElement returns A(i,j), or ErrNoValue if no entry is stored there.
func (m *Matrix[T]) ExtractElement(i, j int) (T, error) {
	var zero T
	if i < 0 || i >= m.nr || j < 0 || j >= m.nc {
		return zero, errf(InvalidIndex, "ExtractElement: (%d,%d) outside %dx%d", i, j, m.nr, m.nc)
	}
	switch m.format {
	case FormatFull:
		return m.val[i*m.nc+j], nil
	case FormatBitmap:
		p := i*m.nc + j
		if m.b[p] == 0 {
			return zero, ErrNoValue
		}
		return m.val[p], nil
	default:
		if len(m.pend) > 0 {
			m.Wait()
		}
		if p, ok := m.findSparse(i, j); ok {
			return m.val[p], nil
		}
		return zero, ErrNoValue
	}
}

// findSparse locates entry (i,j) in the CSR structure, returning its
// position. Binary search when the row is sorted, linear when jumbled.
func (m *Matrix[T]) findSparse(i, j int) (int, bool) {
	lo, hi := m.ptr[i], m.ptr[i+1]
	if m.jumbled {
		p := slices.Index(m.idx[lo:hi], j)
		return lo + p, p >= 0
	}
	p, ok := slices.BinarySearch(m.idx[lo:hi], j)
	return lo + p, ok
}

// ---------------------------------------------------------------------------
// Wait: assemble pending work (lazy sort, pending operations)

// Wait brings the matrix to a finished state: jumbled rows are sorted, and
// the pending operations are merged into the CSR structure. It is
// idempotent and cheap when nothing is pending.
func (m *Matrix[T]) Wait() {
	if m.format != FormatSparse {
		return
	}
	if m.jumbled {
		m.sortRows()
	}
	if len(m.pend) > 0 {
		m.assemblePending()
	}
}

func (m *Matrix[T]) sortRows() {
	parallel.Blocks(m.nr, m.ptr, func(lo, hi int) struct{} {
		// One sorter per block: sort.Sort takes an interface, so a sorter
		// made per row would cost a heap object a row.
		s := &pairSorter[T]{}
		for i := lo; i < hi; i++ {
			a, b := m.ptr[i], m.ptr[i+1]
			if b-a > 1 && !sort.IntsAreSorted(m.idx[a:b]) {
				s.idx, s.val = m.idx[a:b], m.val[a:b]
				sort.Sort(s)
			}
		}
		return struct{}{}
	})
	m.jumbled = false
}

// assemblePending merges the pending operations into fresh CSR arrays. A
// sparse vector's pending operations are assembled here too, on its
// one-row view (Vector.Wait).
func (m *Matrix[T]) assemblePending() {
	log := m.pend
	m.pend = nil
	// Order the log by position, keeping call order within one: a stable
	// bucket by row (count, prefix sum, scatter), then a stable sort by
	// column inside each row's short run.
	end := make([]int, m.nr+1)
	for _, op := range log {
		end[op.i+1]++
	}
	for i := 0; i < m.nr; i++ {
		end[i+1] += end[i]
	}
	pend := make([]pending[T], len(log))
	for _, op := range log {
		pend[end[op.i]] = op
		end[op.i]++ // leaves end[i] one past row i's run
	}
	for i, lo := 0, 0; i < m.nr; i++ {
		if end[i]-lo > 1 {
			slices.SortStableFunc(pend[lo:end[i]], func(a, b pending[T]) int { return cmp.Compare(a.j, b.j) })
		}
		lo = end[i]
	}
	// Fold each position's operations to the last one in call order: a
	// later insert overwrites, a tombstone deletes whatever came before it.
	fold := pend[:0]
	for _, op := range pend {
		if n := len(fold); n > 0 && fold[n-1].i == op.i && fold[n-1].j == op.j {
			fold[n-1] = op
			continue
		}
		fold = append(fold, op)
	}
	// Merge the folded operations into fresh arrays (never in place: a
	// snapshot shares its arrays with its source). CSR rows are
	// contiguous, so whatever lies between two operations — the rest of a
	// row, a run of untouched rows — is copied in one piece, and a row's
	// new start is its old one shifted by the entries gained so far.
	newIdx := make([]int, 0, len(m.idx)+len(fold))
	newVal := make([]T, 0, len(m.val)+len(fold))
	newPtr := end // done with the buckets; every slot is rewritten
	newPtr[0] = 0
	p, row, gained := 0, 0, 0
	emit := func(j int, x T) {
		newIdx = append(newIdx, j)
		newVal = append(newVal, x)
	}
	for _, f := range fold {
		for row < f.i {
			row++
			newPtr[row] = m.ptr[row] + gained
		}
		at, present := slices.BinarySearch(m.idx[m.ptr[f.i]:m.ptr[f.i+1]], f.j)
		at += m.ptr[f.i]
		newIdx = append(newIdx, m.idx[p:at]...)
		newVal = append(newVal, m.val[p:at]...)
		p = at
		switch {
		case present && !f.del: // the insert replaces the existing value
			emit(f.j, f.x)
		case present: // net deletion
			gained--
		case !f.del:
			emit(f.j, f.x)
			gained++
		} // else: tombstone on an absent entry — a no-op.
		if present {
			p++
		}
	}
	newIdx = append(newIdx, m.idx[p:m.ptr[m.nr]]...)
	newVal = append(newVal, m.val[p:m.ptr[m.nr]]...)
	for row < m.nr {
		row++
		newPtr[row] = m.ptr[row] + gained
	}
	m.ptr, m.idx, m.val = newPtr, newIdx, newVal
}

// markJumbled flags the matrix rows as possibly unsorted; if the lazy sort
// is disabled globally, the sort happens immediately instead.
func (m *Matrix[T]) markJumbled() {
	m.jumbled = true
	if !LazySortEnabled() {
		m.sortRows()
	}
}

// ---------------------------------------------------------------------------
// format conversions

// ConvertTo forces a storage format. Converting a sparse matrix with more
// entries than MaxDenseEntries to bitmap/full is the caller's
// responsibility to avoid; the conversion itself is always honoured.
func (m *Matrix[T]) ConvertTo(f Format) {
	m.Wait()
	switch {
	case f == m.format:
	case f == FormatBitmap && m.format == FormatSparse:
		m.sparseToBitmap()
	case f == FormatBitmap && m.format == FormatFull:
		m.fullToBitmap()
	case f == FormatSparse && m.format == FormatBitmap:
		m.bitmapToSparse()
	case f == FormatSparse && m.format == FormatFull:
		m.fullToSparse()
	case f == FormatFull && m.format == FormatBitmap:
		if m.nvalsB == m.nr*m.nc {
			m.b = nil
			m.format = FormatFull
		}
		// A bitmap with holes cannot become full; keep bitmap.
	case f == FormatFull && m.format == FormatSparse:
		if m.ptr[m.nr] == m.nr*m.nc {
			m.sparseToBitmap()
			m.b = nil
			m.format = FormatFull
		}
	}
}

func (m *Matrix[T]) sparseToBitmap() {
	size := m.nr * m.nc
	b := make([]int8, size)
	val := make([]T, size)
	parallel.For(m.nr, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			base := i * m.nc
			for p := m.ptr[i]; p < m.ptr[i+1]; p++ {
				b[base+m.idx[p]] = 1
				val[base+m.idx[p]] = m.val[p]
			}
		}
	})
	m.nvalsB = m.ptr[m.nr]
	m.b, m.val = b, val
	m.ptr, m.idx = nil, nil
	m.format = FormatBitmap
}

func (m *Matrix[T]) fullToBitmap() {
	size := m.nr * m.nc
	b := make([]int8, size)
	for i := range b {
		b[i] = 1
	}
	m.b = b
	m.nvalsB = size
	m.format = FormatBitmap
}

// fullToSparse keeps the value array (row-major order is CSR order when
// every cell is present) and only writes the structure around it.
func (m *Matrix[T]) fullToSparse() {
	ptr := make([]int, m.nr+1)
	idx := make([]int, m.nr*m.nc)
	parallel.For(m.nr, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ptr[i+1] = (i + 1) * m.nc
			for j := 0; j < m.nc; j++ {
				idx[i*m.nc+j] = j
			}
		}
	})
	m.ptr, m.idx = ptr, idx
	m.format = FormatSparse
}

func (m *Matrix[T]) bitmapToSparse() {
	counts := make([]int, m.nr+1)
	parallel.For(m.nr, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c := 0
			base := i * m.nc
			for j := 0; j < m.nc; j++ {
				if m.b[base+j] != 0 {
					c++
				}
			}
			counts[i] = c
		}
	})
	nnz := parallel.ExclusiveScan(counts)
	idx := make([]int, nnz)
	val := make([]T, nnz)
	parallel.For(m.nr, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			w := counts[i]
			base := i * m.nc
			for j := 0; j < m.nc; j++ {
				if m.b[base+j] != 0 {
					idx[w] = j
					val[w] = m.val[base+j]
					w++
				}
			}
		}
	})
	m.ptr, m.idx, m.val = counts, idx, val
	m.b = nil
	m.nvalsB = 0
	m.format = FormatSparse
}

// conform applies the automatic format-switching policy to an operation
// result: dense-enough sparse results become bitmap (or full when every
// cell is present); sparse-enough bitmaps go back to CSR.
func (m *Matrix[T]) conform() {
	size := int64(m.nr) * int64(m.nc)
	switch m.format {
	case FormatSparse:
		nv := m.nvalsUpper()
		if wantBitmap(nv, size, false) {
			m.Wait()
			if int64(m.ptr[m.nr]) == size {
				m.ConvertTo(FormatFull)
			} else {
				m.sparseToBitmap()
			}
		}
	case FormatBitmap:
		if int64(m.nvalsB) == size && size > 0 {
			m.b = nil
			m.format = FormatFull
		} else if wantSparse(m.nvalsB, size) || !BitmapEnabled() {
			m.bitmapToSparse()
		}
	}
}

// ---------------------------------------------------------------------------
// build / export

// MatrixFromTuples builds an nr-by-nc sparse matrix from (rows, cols, vals)
// triples. dup combines duplicates (nil keeps the last). This is GrB's
// C ↤ {i, j, x}.
func MatrixFromTuples[T Value](nr, nc int, rows, cols []int, vals []T, dup func(T, T) T) (*Matrix[T], error) {
	if len(rows) != len(cols) || len(rows) != len(vals) {
		return nil, errf(InvalidValue, "MatrixFromTuples: array lengths differ (%d, %d, %d)", len(rows), len(cols), len(vals))
	}
	m, err := NewMatrix[T](nr, nc)
	if err != nil {
		return nil, err
	}
	if err := cmp.Or(checkIndices("MatrixFromTuples", "row", rows, nr), checkIndices("MatrixFromTuples", "col", cols, nc)); err != nil {
		return nil, err
	}
	// Counting sort by row, then sort each row segment by column.
	counts := make([]int, nr+1)
	for _, i := range rows {
		counts[i]++
	}
	parallel.ExclusiveScan(counts)
	idx := make([]int, len(rows))
	val := make([]T, len(rows))
	next := append([]int(nil), counts[:nr]...)
	for k := range rows {
		p := next[rows[k]]
		next[rows[k]]++
		idx[p] = cols[k]
		val[p] = vals[k]
	}
	m.ptr, m.idx, m.val = counts, idx, val
	parallel.Guided(nr, 32, func(i int) {
		lo, hi := m.ptr[i], m.ptr[i+1]
		if hi-lo > 1 {
			pairSortStable(m.idx[lo:hi], m.val[lo:hi])
		}
	})
	// Combine duplicates.
	if dup == nil {
		dup = func(_, n T) T { return n }
	}
	w := 0
	for i := 0; i < nr; i++ {
		lo, hi := m.ptr[i], m.ptr[i+1]
		m.ptr[i] = w
		for p := lo; p < hi; p++ {
			if w > m.ptr[i] && m.idx[w-1] == m.idx[p] {
				m.val[w-1] = dup(m.val[w-1], m.val[p])
			} else {
				m.idx[w] = m.idx[p]
				m.val[w] = m.val[p]
				w++
			}
		}
	}
	m.ptr[nr] = w
	m.idx = m.idx[:w]
	m.val = m.val[:w]
	return m, nil
}

// ExtractTuples returns the stored entries as parallel (rows, cols, vals)
// arrays in row-major order: {i, j, x} ↤ A.
func (m *Matrix[T]) ExtractTuples() (rows, cols []int, vals []T) {
	m.Wait()
	switch m.format {
	case FormatSparse:
		n := m.ptr[m.nr]
		rows = make([]int, n)
		cols = append([]int(nil), m.idx...)
		vals = append([]T(nil), m.val...)
		for i := 0; i < m.nr; i++ {
			for p := m.ptr[i]; p < m.ptr[i+1]; p++ {
				rows[p] = i
			}
		}
	default:
		for i := 0; i < m.nr; i++ {
			base := i * m.nc
			for j := 0; j < m.nc; j++ {
				if m.format == FormatFull || m.b[base+j] != 0 {
					rows = append(rows, i)
					cols = append(cols, j)
					vals = append(vals, m.val[base+j])
				}
			}
		}
	}
	return rows, cols, vals
}

// ImportCSR adopts caller-built CSR arrays without copying. jumbled
// declares whether rows may be unsorted. The arrays must not be reused by
// the caller afterwards.
func ImportCSR[T Value](nr, nc int, ptr, idx []int, val []T, jumbled bool) (*Matrix[T], error) {
	if nr < 0 || nc < 0 || len(ptr) != nr+1 || len(idx) != ptr[nr] || len(val) != ptr[nr] {
		return nil, errf(InvalidValue, "ImportCSR: inconsistent arrays")
	}
	m := &Matrix[T]{nr: nr, nc: nc, format: FormatSparse, ptr: ptr, idx: idx, val: val}
	if jumbled {
		m.markJumbled()
	}
	return m, nil
}

// ExportCSR finishes the matrix and returns its CSR arrays. The matrix
// remains valid and shares the arrays; treat them as read-only.
func (m *Matrix[T]) ExportCSR() (ptr, idx []int, val []T) {
	m.Wait()
	if m.format != FormatSparse {
		m.ConvertTo(FormatSparse)
	}
	return m.ptr, m.idx, m.val
}

// denseHas reports whether cell p (= i*nc + j) of a bitmap or full matrix
// holds an entry.
func (m *Matrix[T]) denseHas(p int) bool { return m.format == FormatFull || m.b[p] != 0 }

// ---------------------------------------------------------------------------
// sorting helpers

// pairSort sorts idx ascending, permuting val alongside (unstable).
func pairSort[T any](idx []int, val []T) {
	sort.Sort(&pairSorter[T]{idx: idx, val: val})
}

// pairSortStable is the stable variant used where duplicate handling must
// respect insertion order.
func pairSortStable[T any](idx []int, val []T) {
	sort.Stable(&pairSorter[T]{idx: idx, val: val})
}

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
