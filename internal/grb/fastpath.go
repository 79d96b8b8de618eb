package grb

import (
	"math"

	"lagraph/internal/parallel"
)

// Monomorphized kernel fast paths. The generic kernels pay two indirect
// function calls per stored entry (⊗ then ⊕), which Go cannot inline.
// SuiteSparse:GraphBLAS solves the same problem with its "factory
// kernels": pre-generated code for the common (semiring, type, format)
// combinations, falling back to generic kernels otherwise. These fast
// paths are the Go analogue; they are semantically identical to the
// generic path (tests compare them) and exist purely for the Table III
// shape.

// tryPullFast recognises the hot semirings of w ⊙= A ⊕.⊗ u (plus.second,
// min.second, plus.pair) over a sparse A, a bitmap/full u and no mask, and
// runs the row reductions as a tight concrete-typed loop; second and pair
// ignore A's values, so A may hold any type. Under the dense-output rule
// (an accumulator, a bitmap/full w that is not u) each row's reduction is
// folded straight into w; otherwise it lands in a fresh bitmap that is
// merged as usual. It reports false, having done nothing, when the call is
// any other shape.
func tryPullFast[TA, TB, TC Value](w *Vector[TC], mask Mask, accum func(TC, TC) TC,
	s Semiring[TA, TB, TC], A *Matrix[TA], u *Vector[TB]) bool {

	if mask.Exists() || A.format != FormatSparse || u.format == FormatSparse {
		return false
	}
	var reduce func(dst *Vector[TC], acc func(TC, TC) TC)
	switch s.pull {
	case pullPlusSecond: // PageRank's pull: w(i) = Σ_k u(k) over row i's entries
		uf, ok := any(u).(*Vector[float64])
		if _, same := any(w).(*Vector[float64]); !ok || !same {
			return false
		}
		reduce = func(dst *Vector[TC], acc func(TC, TC) TC) {
			plusSecondPull(A, uf, any(dst).(*Vector[float64]), any(acc).(func(float64, float64) float64))
		}
	case pullMinSecond: // FastSV's minimum-neighbour gather
		ui, ok := any(u).(*Vector[int64])
		if _, same := any(w).(*Vector[int64]); !ok || !same {
			return false
		}
		reduce = func(dst *Vector[TC], acc func(TC, TC) TC) {
			minSecondPull(A, ui, any(dst).(*Vector[int64]), any(acc).(func(int64, int64) int64))
		}
	case pullPlusPair: // the degree A·1: pair reads neither operand's values
		if _, ok := any(w).(*Vector[int64]); !ok {
			return false
		}
		reduce = func(dst *Vector[TC], acc func(TC, TC) TC) {
			plusPairPull(A, u.b, any(dst).(*Vector[int64]), any(acc).(func(int64, int64) int64))
		}
	default:
		return false
	}
	if w.format != FormatSparse && accum != nil && any(u) != any(w) {
		reduce(w, accum)
		return true
	}
	t := MustVector[TC](A.nr)
	t.format, t.b, t.val = FormatBitmap, make([]int8, A.nr), make([]TC, A.nr)
	reduce(t, nil)
	w.maskAccum(mask, accum, &t.store, false, true, nil)
	return true
}

// plusSecondPull folds Σ_{k ∈ A(i,:) ∩ u} u(k), the row's sum first, into
// the bitmap/full w at every row i that has a hit.
func plusSecondPull[TA Value](A *Matrix[TA], u, w *Vector[float64], accum func(float64, float64) float64) {
	added := parallel.Reduce(A.nr, 0, func(lo, hi int) int {
		ptr, idx, ub, uv, wb, wv := A.ptr, A.idx, u.b, u.val, w.b, w.val
		count := 0
		for i := lo; i < hi; i++ {
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
			switch {
			case !hit:
			case wb == nil || wb[i] != 0:
				wv[i] = accum(wv[i], acc)
			default:
				wb[i], wv[i] = 1, acc
				count++
			}
		}
		return count
	}, func(a, b int) int { return a + b })
	w.nvalsB += added
	w.conform()
}

// plusPairPull folds |A(i,:) ∩ u| into the bitmap/full w at every row i
// that has a hit. Over a full u (ub nil) the count is the row's length;
// over a bitmap u it is the number of the row's columns that u holds.
func plusPairPull[TA Value](A *Matrix[TA], ub []int8, w *Vector[int64], accum func(int64, int64) int64) {
	added := parallel.Reduce(A.nr, 0, func(lo, hi int) int {
		ptr, idx, wb, wv := A.ptr, A.idx, w.b, w.val
		count := 0
		for i := lo; i < hi; i++ {
			acc := int64(ptr[i+1] - ptr[i])
			if ub != nil {
				acc = 0
				for _, k := range idx[ptr[i]:ptr[i+1]] {
					if ub[k] != 0 {
						acc++
					}
				}
			}
			switch {
			case acc == 0:
			case wb == nil || wb[i] != 0:
				wv[i] = accum(wv[i], acc)
			default:
				wb[i], wv[i] = 1, acc
				count++
			}
		}
		return count
	}, func(a, b int) int { return a + b })
	w.nvalsB += added
	w.conform()
}

// minSecondPull is plusSecondPull on the min monoid.
func minSecondPull[TA Value](A *Matrix[TA], u, w *Vector[int64], accum func(int64, int64) int64) {
	added := parallel.Reduce(A.nr, 0, func(lo, hi int) int {
		ptr, idx, ub, uv, wb, wv := A.ptr, A.idx, u.b, u.val, w.b, w.val
		count := 0
		for i := lo; i < hi; i++ {
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
			switch {
			case !hit:
			case wb == nil || wb[i] != 0:
				wv[i] = accum(wv[i], acc)
			default:
				wb[i], wv[i] = 1, acc
				count++
			}
		}
		return count
	}, func(a, b int) int { return a + b })
	w.nvalsB += added
	w.conform()
}
