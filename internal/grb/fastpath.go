package grb

import "lagraph/internal/parallel"

// Monomorphized kernel fast paths. The generic kernels pay two indirect
// function calls per stored entry (⊗ then ⊕), which Go cannot inline.
// SuiteSparse:GraphBLAS solves the same problem with its "factory
// kernels": pre-generated code for the common (semiring, type, format)
// combinations, falling back to generic kernels otherwise. These fast
// paths are the Go analogue; they are semantically identical to the
// generic path (tests compare them) and exist purely for the Table III
// shape.

// tryPullFast recognises hot (semiring, format) combinations for
// w = A ⊕.⊗ u with a FULL u and no mask, and computes the result with a
// tight concrete-typed loop. Returns nil when not applicable.
func tryPullFast[TA, TB, TC Value](s Semiring[TA, TB, TC], A *Matrix[TA], u *Vector[TB], mask VMask) *Vector[TC] {
	if mask.Exists() || A.format != FormatSparse ||
		(u.format != FormatFull && u.format != FormatBitmap) {
		return nil
	}
	switch s.Name {
	case "plus.second":
		// PageRank's pull: w(i) = Σ_k u(k) over row i's entries.
		af, ok := any(A).(*Matrix[float64])
		if !ok {
			return nil
		}
		uf, ok := any(u).(*Vector[float64])
		if !ok {
			return nil
		}
		out := plusSecondPullF64(af, uf.b, uf.val)
		res, ok := any(out).(*Vector[TC])
		if !ok {
			return nil
		}
		return res
	case "min.second":
		// FastSV's minimum-neighbour gather.
		af, ok := any(A).(*Matrix[bool])
		if !ok {
			return nil
		}
		ui, ok := any(u).(*Vector[int64])
		if !ok {
			return nil
		}
		out := minSecondPullBoolI64(af, ui.b, ui.val)
		res, ok := any(out).(*Vector[TC])
		if !ok {
			return nil
		}
		return res
	}
	return nil
}

// plusSecondPullF64: w(i) = Σ_{k ∈ A(i,:) ∩ u} u(k). uHas is nil when u is
// full. Rows with no hits are absent, so the result is a bitmap vector.
func plusSecondPullF64(A *Matrix[float64], uHas []int8, u []float64) *Vector[float64] {
	nr := A.nr
	w := MustVector[float64](nr)
	w.format = FormatBitmap
	w.b = make([]int8, nr)
	w.val = make([]float64, nr)
	total := parallel.Reduce(nr, 0, func(lo, hi int) int64 {
		var count int64
		for i := lo; i < hi; i++ {
			p, pe := A.ptr[i], A.ptr[i+1]
			if p == pe {
				continue
			}
			var acc float64
			hit := false
			if uHas == nil {
				hit = p < pe
				for ; p < pe; p++ {
					acc += u[A.idx[p]]
				}
			} else {
				for ; p < pe; p++ {
					if k := A.idx[p]; uHas[k] != 0 {
						acc += u[k]
						hit = true
					}
				}
			}
			if !hit {
				continue
			}
			w.b[i] = 1
			w.val[i] = acc
			count++
		}
		return count
	}, func(a, b int64) int64 { return a + b })
	w.nvalsB = int(total)
	w.conform()
	return w
}

// minSecondPullBoolI64: w(i) = min over A(i,:) ∩ u of u(k).
func minSecondPullBoolI64(A *Matrix[bool], uHas []int8, u []int64) *Vector[int64] {
	nr := A.nr
	w := MustVector[int64](nr)
	w.format = FormatBitmap
	w.b = make([]int8, nr)
	w.val = make([]int64, nr)
	total := parallel.Reduce(nr, 0, func(lo, hi int) int64 {
		var count int64
		for i := lo; i < hi; i++ {
			p, pe := A.ptr[i], A.ptr[i+1]
			if p == pe {
				continue
			}
			var acc int64
			hit := false
			for ; p < pe; p++ {
				k := A.idx[p]
				if uHas != nil && uHas[k] == 0 {
					continue
				}
				if x := u[k]; !hit || x < acc {
					acc = x
					hit = true
				}
			}
			if !hit {
				continue
			}
			w.b[i] = 1
			w.val[i] = acc
			count++
		}
		return count
	}, func(a, b int64) int64 { return a + b })
	w.nvalsB = int(total)
	w.conform()
	return w
}
