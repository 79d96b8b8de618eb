package grb

import "cmp"

// Matrix is a generic GraphBLAS matrix held by row. Unlike the opaque
// GrB_Matrix, its accessors expose enough structure for the LAGraph layer
// to stay honest about cost, but algorithm code should treat it through the
// package's operations. Its storage, formats and pending work are the
// store's (store.go), which it shares with Vector.
type Matrix[T Value] struct {
	store[T]
}

// NewMatrix returns an empty sparse nr-by-nc matrix.
func NewMatrix[T Value](nr, nc int) (*Matrix[T], error) {
	if nr < 0 || nc < 0 {
		return nil, errf(InvalidValue, "NewMatrix: negative dimension %d x %d", nr, nc)
	}
	return &Matrix[T]{store[T]{nr: nr, nc: nc, ptr: emptyPtr(nr)}}, nil
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

// Dup returns a deep copy of the finished matrix.
func (m *Matrix[T]) Dup() *Matrix[T] { return &Matrix[T]{m.dup()} }

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
	return &Matrix[T]{store[T]{
		nr: m.nr, nc: m.nc, format: FormatSparse,
		ptr: m.ptr, idx: m.idx, val: m.val,
		pend: m.pend[:n:n],
	}}, nil
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
	m.assemble(tuples[T]{rows: rows, cols: cols, vals: vals}, dup)
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
		n := m.nvalsUpper()
		rows, cols, vals = make([]int, 0, n), make([]int, 0, n), make([]T, 0, n)
		for i := 0; i < m.nr; i++ {
			m.rowIter(i, func(j int, x T) { rows, cols, vals = append(rows, i), append(cols, j), append(vals, x) })
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
	m := &Matrix[T]{store[T]{nr: nr, nc: nc, ptr: ptr, idx: idx, val: val}}
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
