package lagraph

import (
	"time"

	"lagraph/internal/grb"
)

// Utility functions of paper §V that are not Graph methods.

// Pattern returns a boolean matrix containing the pattern of a matrix.
func Pattern[T grb.Value](A *grb.Matrix[T]) (*grb.Matrix[bool], error) {
	p := grb.MustMatrix[bool](A.NRows(), A.NCols())
	op := grb.UnaryOp[T, bool]{Name: "one", F: func(T) bool { return true }}
	if err := grb.Apply(p, grb.NoMask, nil, op, A, nil); err != nil {
		return nil, wrap(StatusInvalidValue, err, "Pattern")
	}
	return p, nil
}

// IsEqual determines if two matrices are equal (same type, dimensions,
// pattern, and values). It selects the equality operator for the type and
// calls IsAll, exactly as described in §V.
func IsEqual[T grb.Value](A, B *grb.Matrix[T]) (bool, error) {
	return IsAll(A, B, func(a, b T) bool { return a == b })
}

// IsAll compares two matrices: false if dimensions or patterns differ;
// otherwise the comparator is applied to every pair of entries and IsAll
// reports whether all comparisons return true.
func IsAll[T grb.Value](A, B *grb.Matrix[T], eq func(a, b T) bool) (bool, error) {
	if A == nil || B == nil {
		return false, errf(StatusNullPointer, "IsAll: nil matrix")
	}
	ar, ac := A.Dims()
	br, bc := B.Dims()
	if ar != br || ac != bc {
		return false, nil
	}
	if A.NVals() != B.NVals() {
		return false, nil
	}
	// C = A eq∩ B; equal iff the intersection covers all entries and every
	// comparison is true.
	op := grb.BinaryOp[T, T, bool]{Name: "iseq", F: eq}
	c := grb.MustMatrix[bool](ar, ac)
	if err := grb.EWiseMult(c, grb.NoMask, nil, op, A, B, nil); err != nil {
		return false, wrap(StatusInvalidValue, err, "IsAll")
	}
	if c.NVals() != A.NVals() {
		return false, nil
	}
	land := grb.LandMonoid()
	return grb.ReduceMatrixToScalar(land, c), nil
}

// VectorIsEqual is the vector analogue of IsEqual.
func VectorIsEqual[T grb.Value](u, v *grb.Vector[T]) (bool, error) {
	if u == nil || v == nil {
		return false, errf(StatusNullPointer, "VectorIsEqual: nil vector")
	}
	if u.Size() != v.Size() || u.NVals() != v.NVals() {
		return false, nil
	}
	op := grb.BinaryOp[T, T, bool]{Name: "iseq", F: func(a, b T) bool { return a == b }}
	c := grb.MustVector[bool](u.Size())
	if err := grb.EWiseMultV(c, grb.NoVMask, nil, op, u, v, nil); err != nil {
		return false, wrap(StatusInvalidValue, err, "VectorIsEqual")
	}
	if c.NVals() != u.NVals() {
		return false, nil
	}
	return grb.ReduceVectorToScalar(grb.LandMonoid(), c), nil
}

// ---------------------------------------------------------------------------
// portable timer (paper §V: Tic/Toc)

// Timer is the Tic/Toc pair as a value type.
type Timer struct{ start time.Time }

// Tic starts (or restarts) the timer.
func (t *Timer) Tic() { t.start = time.Now() }

// Toc returns the seconds elapsed since the last Tic.
func (t *Timer) Toc() float64 { return time.Since(t.start).Seconds() }

// Tic returns a started timer; the package-level form of the C API's
// LAGraph_Tic.
func Tic() Timer { return Timer{start: time.Now()} }
