package grb

import "slices"

// Vector is a generic GraphBLAS vector of length n. Like Matrix it may be
// sparse (sorted index/value lists), bitmap, or full, and a sparse vector
// carries the pending work of a one-row matrix: pending operations and a
// jumbled list, assembled by Wait. The sparse form is the natural "frontier
// as list" representation for the push direction; the bitmap form is the
// "frontier as bitmap" the pull direction needs (paper §VI-A).
type Vector[T Value] struct {
	n      int
	format Format

	idx []int // sparse: sorted entry indices
	val []T   // sparse: len(idx); bitmap/full: len n

	b      []int8
	nvalsB int

	jumbled bool
	pend    []pending[T] // a one-row matrix's: the index in j, the last operation on an index wins
}

// NewVector returns an empty sparse vector of length n.
func NewVector[T Value](n int) (*Vector[T], error) {
	if n < 0 {
		return nil, errf(InvalidValue, "NewVector: negative length %d", n)
	}
	return &Vector[T]{n: n, format: FormatSparse}, nil
}

// MustVector is NewVector for known-good lengths.
func MustVector[T Value](n int) *Vector[T] {
	v, err := NewVector[T](n)
	if err != nil {
		panic(err)
	}
	return v
}

// Size returns the vector length (GrB_Vector_size).
func (v *Vector[T]) Size() int { return v.n }

// Format returns the current storage format.
func (v *Vector[T]) Format() Format { return v.format }

// Jumbled reports whether the entry list may be unsorted (lazy sort).
func (v *Vector[T]) Jumbled() bool { return v.jumbled }

// PendingTuples reports the number of unassembled operations (insertions
// plus tombstones).
func (v *Vector[T]) PendingTuples() int { return len(v.pend) }

// NVals returns the number of stored entries, finishing pending work first.
func (v *Vector[T]) NVals() int {
	v.Wait()
	switch v.format {
	case FormatSparse:
		return len(v.idx)
	case FormatBitmap:
		return v.nvalsB
	default:
		return v.n
	}
}

// Clear removes all entries.
func (v *Vector[T]) Clear() {
	v.format = FormatSparse
	v.idx, v.val, v.b = nil, nil, nil
	v.nvalsB = 0
	v.jumbled = false
	v.pend = nil
}

// Dup returns a deep copy of the finished vector.
func (v *Vector[T]) Dup() *Vector[T] {
	v.Wait()
	c := &Vector[T]{n: v.n, format: v.format, nvalsB: v.nvalsB}
	c.idx = append([]int(nil), v.idx...)
	c.val = append([]T(nil), v.val...)
	c.b = append([]int8(nil), v.b...)
	return c
}

// SetElement stores w(i) = x. As on a matrix, on a sparse vector the store
// becomes a pending tuple.
func (v *Vector[T]) SetElement(x T, i int) error {
	if i < 0 || i >= v.n {
		return errf(InvalidIndex, "SetElement: %d outside length %d", i, v.n)
	}
	switch v.format {
	case FormatFull:
		v.val[i] = x
	case FormatBitmap:
		if v.b[i] == 0 {
			v.b[i] = 1
			v.nvalsB++
		}
		v.val[i] = x
	default:
		v.pend = append(v.pend, pending[T]{j: i, x: x})
	}
	return nil
}

// RemoveElement deletes w(i) if present. On a sparse vector the deletion
// becomes a pending tombstone.
func (v *Vector[T]) RemoveElement(i int) error {
	if i < 0 || i >= v.n {
		return errf(InvalidIndex, "RemoveElement: %d outside length %d", i, v.n)
	}
	switch v.format {
	case FormatFull:
		v.fullToBitmap()
		fallthrough
	case FormatBitmap:
		if v.b[i] != 0 {
			v.b[i] = 0
			var zero T
			v.val[i] = zero
			v.nvalsB--
		}
	default:
		v.pend = append(v.pend, pending[T]{j: i, del: true})
	}
	return nil
}

// ExtractElement returns w(i) or ErrNoValue.
func (v *Vector[T]) ExtractElement(i int) (T, error) {
	var zero T
	if i < 0 || i >= v.n {
		return zero, errf(InvalidIndex, "ExtractElement: %d outside length %d", i, v.n)
	}
	switch v.format {
	case FormatFull:
		return v.val[i], nil
	case FormatBitmap:
		if v.b[i] == 0 {
			return zero, ErrNoValue
		}
		return v.val[i], nil
	default:
		if len(v.pend) > 0 {
			v.Wait()
		}
		if p, ok := v.findSparse(i); ok {
			return v.val[p], nil
		}
		return zero, ErrNoValue
	}
}

func (v *Vector[T]) findSparse(i int) (int, bool) {
	if v.jumbled {
		p := slices.Index(v.idx, i)
		return p, p >= 0
	}
	return slices.BinarySearch(v.idx, i)
}

// Wait sorts a jumbled list and assembles the pending operations. A vector
// has no assembler of its own: its pending operations are a one-row
// matrix's, merged by assemblePending on the asRow view.
func (v *Vector[T]) Wait() {
	if v.format != FormatSparse {
		return
	}
	if v.jumbled {
		if !slices.IsSorted(v.idx) {
			pairSort(v.idx, v.val)
		}
		v.jumbled = false
	}
	if len(v.pend) > 0 {
		var ptr [2]int
		row := v.asRow(&ptr)
		row.pend, v.pend = v.pend, nil
		row.assemblePending()
		v.idx, v.val = row.idx, row.val
	}
}

func (v *Vector[T]) markJumbled() {
	v.jumbled = true
	if !LazySortEnabled() {
		v.Wait()
	}
}

// ---------------------------------------------------------------------------
// format conversions

// ConvertTo forces a storage format (vectors are always small enough to
// densify).
func (v *Vector[T]) ConvertTo(f Format) {
	v.Wait()
	switch {
	case f == v.format:
	case f == FormatBitmap && v.format == FormatSparse:
		v.sparseToBitmap()
	case f == FormatBitmap && v.format == FormatFull:
		v.fullToBitmap()
	case f == FormatSparse && v.format == FormatBitmap:
		v.bitmapToSparse()
	case f == FormatSparse && v.format == FormatFull:
		v.idx = make([]int, v.n)
		for i := range v.idx {
			v.idx[i] = i
		}
		v.format = FormatSparse
	case f == FormatFull && v.format == FormatBitmap:
		if v.nvalsB == v.n {
			v.b = nil
			v.format = FormatFull
		}
	case f == FormatFull && v.format == FormatSparse:
		if len(v.idx) == v.n {
			v.sparseToBitmap()
			v.b = nil
			v.format = FormatFull
		}
	}
}

func (v *Vector[T]) sparseToBitmap() {
	b := make([]int8, v.n)
	val := make([]T, v.n)
	for p, i := range v.idx {
		b[i] = 1
		val[i] = v.val[p]
	}
	v.nvalsB = len(v.idx)
	v.b, v.val = b, val
	v.idx = nil
	v.format = FormatBitmap
}

func (v *Vector[T]) fullToBitmap() {
	b := make([]int8, v.n)
	for i := range b {
		b[i] = 1
	}
	v.b = b
	v.nvalsB = v.n
	v.format = FormatBitmap
}

func (v *Vector[T]) bitmapToSparse() {
	idx := make([]int, 0, v.nvalsB)
	val := make([]T, 0, v.nvalsB)
	for i := 0; i < v.n; i++ {
		if v.b[i] != 0 {
			idx = append(idx, i)
			val = append(val, v.val[i])
		}
	}
	v.idx, v.val = idx, val
	v.b = nil
	v.nvalsB = 0
	v.format = FormatSparse
}

// conform applies the automatic format policy to an operation result.
func (v *Vector[T]) conform() {
	size := int64(v.n)
	switch v.format {
	case FormatSparse:
		if wantBitmap(len(v.idx)+len(v.pend), size, true) {
			v.Wait()
			if len(v.idx) == v.n && v.n > 0 {
				v.ConvertTo(FormatFull)
			} else {
				v.sparseToBitmap()
			}
		}
	case FormatBitmap:
		if v.nvalsB == v.n && v.n > 0 {
			v.b = nil
			v.format = FormatFull
		} else if wantSparse(v.nvalsB, size) || !BitmapEnabled() {
			v.bitmapToSparse()
		}
	}
}

// ---------------------------------------------------------------------------
// build / export / iteration

// VectorFromTuples builds a sparse vector from (indices, values):
// w ↤ {i, x}. dup combines duplicates (nil keeps the last).
func VectorFromTuples[T Value](n int, indices []int, vals []T, dup func(T, T) T) (*Vector[T], error) {
	if len(indices) != len(vals) {
		return nil, errf(InvalidValue, "VectorFromTuples: array lengths differ (%d, %d)", len(indices), len(vals))
	}
	v, err := NewVector[T](n)
	if err != nil {
		return nil, err
	}
	if err := checkIndices("VectorFromTuples", "index", indices, n); err != nil {
		return nil, err
	}
	idx := append([]int(nil), indices...)
	val := append([]T(nil), vals...)
	pairSortStable(idx, val)
	if dup == nil {
		dup = func(_, n T) T { return n }
	}
	w := 0
	for p := range idx {
		if w > 0 && idx[w-1] == idx[p] {
			val[w-1] = dup(val[w-1], val[p])
		} else {
			idx[w], val[w] = idx[p], val[p]
			w++
		}
	}
	v.idx, v.val = idx[:w], val[:w]
	return v, nil
}

// DenseVector returns a full vector with every element set to x.
func DenseVector[T Value](n int, x T) *Vector[T] {
	v := MustVector[T](n)
	v.val = make([]T, n)
	if truthy(x) {
		for i := range v.val {
			v.val[i] = x
		}
	}
	v.format = FormatFull
	return v
}

// ExtractTuples returns the stored entries as (indices, values) in
// ascending index order: {i, x} ↤ u.
func (v *Vector[T]) ExtractTuples() (indices []int, vals []T) {
	v.Wait()
	switch v.format {
	case FormatSparse:
		return append([]int(nil), v.idx...), append([]T(nil), v.val...)
	case FormatBitmap:
		for i := 0; i < v.n; i++ {
			if v.b[i] != 0 {
				indices = append(indices, i)
				vals = append(vals, v.val[i])
			}
		}
		return indices, vals
	default:
		indices = make([]int, v.n)
		for i := range indices {
			indices[i] = i
		}
		return indices, append([]T(nil), v.val...)
	}
}

// Iterate calls f for every stored entry in ascending index order on the
// finished vector. Used by kernels and the LAGraph layer.
func (v *Vector[T]) Iterate(f func(i int, x T)) {
	v.Wait()
	switch v.format {
	case FormatSparse:
		for p, i := range v.idx {
			f(i, v.val[p])
		}
	case FormatBitmap:
		for i := 0; i < v.n; i++ {
			if v.b[i] != 0 {
				f(i, v.val[i])
			}
		}
	default:
		for i := 0; i < v.n; i++ {
			f(i, v.val[i])
		}
	}
}

// get returns (value, present) with O(1) access for dense formats and
// binary search for sparse; the value is meaningful only where present. The
// vector must be finished.
func (v *Vector[T]) get(i int) (x T, ok bool) {
	if v.format != FormatSparse {
		return v.val[i], v.b == nil || v.b[i] != 0
	}
	if p, ok := v.findSparse(i); ok {
		return v.val[p], true
	}
	return x, false
}
