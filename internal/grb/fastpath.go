package grb

import "math"

// Monomorphized kernel fast paths. The generic kernels pay two indirect
// function calls per stored entry (⊗ then ⊕), which Go cannot inline.
// SuiteSparse:GraphBLAS solves the same problem with its "factory
// kernels": pre-generated code for the common (semiring, type, format)
// combinations, falling back to generic kernels otherwise. These fast
// paths are the Go analogue; they are semantically identical to the
// generic path (tests compare them) and exist purely for the Table III
// shape.
//
// A pull MxV by PlusSecond, MinSecond or PlusPair over a sparse A and a
// bitmap/full u runs one of the loops below in place of dotRow. A loop
// reduces rows [lo, hi) of A — the piece of w that run hands it — as a
// tight concrete-typed loop, skips a row the mask refuses, and emits the
// rest into the sink like any other kernel; the write-back puts them. Second
// and pair ignore A's values, so A may hold any type.

// pullsFast reports whether the pull of s over A and u has a loop below.
// PlusSecond and MinSecond produce u's type, so TC names both.
func pullsFast[TA, TB, TC Value](s Semiring[TA, TB, TC], A *Matrix[TA], u *Vector[TB]) bool {
	if A.format != FormatSparse || u.format == FormatSparse {
		return false
	}
	switch any(*new(TC)).(type) {
	case float64:
		return s.pull == pullPlusSecond
	case int64:
		return s.pull == pullMinSecond || s.pull == pullPlusPair
	}
	return false
}

// pullFast runs the loop that pull names over rows [lo, hi) of A.
func pullFast[TA, TB, TC Value](pull pullLoop, A *Matrix[TA], u *Vector[TB], lo, hi int, o *sink[TC]) {
	switch pull {
	case pullPlusSecond: // PageRank's pull: w(i) = Σ_k u(k) over row i's entries
		plusSecondPull(A, any(u).(*Vector[float64]), lo, hi, any(o).(*sink[float64]))
	case pullMinSecond: // FastSV's minimum-neighbour gather
		minSecondPull(A, any(u).(*Vector[int64]), lo, hi, any(o).(*sink[int64]))
	default: // the degree A·1: pair reads neither operand's values
		plusPairPull(A, u.b, lo, hi, any(o).(*sink[int64]))
	}
}

// plusSecondPull emits Σ_{k ∈ A(i,:) ∩ u} u(k) at every row i that the
// mask allows and that has a hit.
func plusSecondPull[TA Value](A *Matrix[TA], u *Vector[float64], lo, hi int, o *sink[float64]) {
	ptr, idx, ub, uv, masked := A.ptr, A.idx, u.b, u.val, o.wb.mk.Exists()
	for i := lo; i < hi; i++ {
		if masked && !o.ok(i) {
			continue
		}
		var acc float64
		row := idx[ptr[i]:ptr[i+1]]
		hit := len(row) > 0
		if ub == nil {
			for _, k := range row {
				acc += uv[k]
			}
		} else {
			hit = false
			for _, k := range row {
				if ub[k] != 0 {
					acc += uv[k]
					hit = true
				}
			}
		}
		if hit {
			o.emit(i, acc)
		}
	}
}

// plusPairPull emits |A(i,:) ∩ u| at every row i that the mask allows and
// that has a hit. Over a full u (ub nil) the count is the row's length;
// over a bitmap u it is the number of the row's columns that u holds.
func plusPairPull[TA Value](A *Matrix[TA], ub []int8, lo, hi int, o *sink[int64]) {
	ptr, idx, masked := A.ptr, A.idx, o.wb.mk.Exists()
	for i := lo; i < hi; i++ {
		if masked && !o.ok(i) {
			continue
		}
		acc := int64(ptr[i+1] - ptr[i])
		if ub != nil {
			acc = 0
			for _, k := range idx[ptr[i]:ptr[i+1]] {
				if ub[k] != 0 {
					acc++
				}
			}
		}
		if acc != 0 {
			o.emit(i, acc)
		}
	}
}

// minSecondPull is plusSecondPull on the min monoid.
func minSecondPull[TA Value](A *Matrix[TA], u *Vector[int64], lo, hi int, o *sink[int64]) {
	ptr, idx, ub, uv, masked := A.ptr, A.idx, u.b, u.val, o.wb.mk.Exists()
	for i := lo; i < hi; i++ {
		if masked && !o.ok(i) {
			continue
		}
		acc := int64(math.MaxInt64)
		row := idx[ptr[i]:ptr[i+1]]
		hit := len(row) > 0
		if ub == nil {
			for _, k := range row {
				acc = min(acc, uv[k])
			}
		} else {
			hit = false
			for _, k := range row {
				if ub[k] != 0 {
					acc, hit = min(acc, uv[k]), true
				}
			}
		}
		if hit {
			o.emit(i, acc)
		}
	}
}
