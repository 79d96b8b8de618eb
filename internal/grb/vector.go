package grb

// Vector is a generic GraphBLAS vector of length n: a store of one row, as
// in SuiteSparse:GraphBLAS, where a GrB_Vector is an n×1 GrB_Matrix. It
// shares the matrix's formats, format policy, pending work and element
// access (store.go), and is the matrix form a product kernel takes it in.
// The sparse form is the natural "frontier as list" representation for the
// push direction; the bitmap form is the "frontier as bitmap" the pull
// direction needs (paper §VI-A).
type Vector[T Value] struct {
	store[T]
}

// NewVector returns an empty sparse vector of length n.
func NewVector[T Value](n int) (*Vector[T], error) {
	if n < 0 {
		return nil, errf(InvalidValue, "NewVector: negative length %d", n)
	}
	return &Vector[T]{store[T]{nr: 1, nc: n, ptr: emptyPtr(1)}}, nil
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
func (v *Vector[T]) Size() int { return v.nc }

// Dup returns a deep copy of the finished vector.
func (v *Vector[T]) Dup() *Vector[T] { return &Vector[T]{v.dup()} }

// SetElement stores w(i) = x; on a sparse vector the store becomes a
// pending tuple, as on a matrix.
func (v *Vector[T]) SetElement(x T, i int) error { return v.store.SetElement(x, 0, i) }

// RemoveElement deletes w(i) if present; on a sparse vector the deletion
// becomes a pending tombstone.
func (v *Vector[T]) RemoveElement(i int) error { return v.store.RemoveElement(0, i) }

// ExtractElement returns w(i) or ErrNoValue.
func (v *Vector[T]) ExtractElement(i int) (T, error) { return v.store.ExtractElement(0, i) }

// asRow is the vector as the 1×n matrix it is stored as — the same object
// under the other type, so a product kernel takes it as an operand for
// free.
func (v *Vector[T]) asRow() *Matrix[T] { return (*Matrix[T])(v) }

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
	v.assemble(tuples[T]{cols: indices, vals: vals}, dup)
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
	indices, vals = make([]int, 0, v.NVals()), make([]T, 0, v.NVals())
	v.Iterate(func(i int, x T) { indices, vals = append(indices, i), append(vals, x) })
	return indices, vals
}

// Iterate calls f for every stored entry in ascending index order on the
// finished vector. Used by kernels and the LAGraph layer.
func (v *Vector[T]) Iterate(f func(i int, x T)) {
	v.Wait()
	v.rowIter(0, f)
}
