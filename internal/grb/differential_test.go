package grb

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property-based differential suite: the production kernels — including
// every monomorphized fast path in fastpath.go and the fused step in
// fuse.go, which are selected by (semiring, format) at run time — are
// compared against *naive dense reference* implementations on random
// inputs driven by testing/quick. Entry values are small integers held in
// float64, so every sum is exact and "equal" means equal, independent of
// accumulation order.

// denseMat expands a matrix into a dense value array plus a presence
// bitmap — the reference representation.
type denseMat struct {
	nr, nc int
	val    [][]float64
	has    [][]bool
}

func newDenseMat(nr, nc int) *denseMat {
	d := &denseMat{nr: nr, nc: nc, val: make([][]float64, nr), has: make([][]bool, nr)}
	for i := range d.val {
		d.val[i] = make([]float64, nc)
		d.has[i] = make([]bool, nc)
	}
	return d
}

func denseFrom(m *Matrix[float64]) *denseMat {
	d := newDenseMat(m.NRows(), m.NCols())
	rows, cols, vals := m.ExtractTuples()
	for k := range rows {
		d.val[rows[k]][cols[k]] = vals[k]
		d.has[rows[k]][cols[k]] = true
	}
	return d
}

// equalsMatrix checks structure and values both ways.
func (d *denseMat) equalsMatrix(m *Matrix[float64]) bool {
	got := newDenseMat(d.nr, d.nc)
	rows, cols, vals := m.ExtractTuples()
	if m.NRows() != d.nr || m.NCols() != d.nc {
		return false
	}
	for k := range rows {
		got.val[rows[k]][cols[k]] = vals[k]
		got.has[rows[k]][cols[k]] = true
	}
	for i := 0; i < d.nr; i++ {
		for j := 0; j < d.nc; j++ {
			if got.has[i][j] != d.has[i][j] || got.val[i][j] != d.val[i][j] {
				return false
			}
		}
	}
	return true
}

// naiveDenseMxM is the triple loop over the dense expansion.
func naiveDenseMxM(A, B *Matrix[float64]) *denseMat {
	da, db := denseFrom(A), denseFrom(B)
	out := newDenseMat(da.nr, db.nc)
	for i := 0; i < da.nr; i++ {
		for j := 0; j < db.nc; j++ {
			sum, any := 0.0, false
			for k := 0; k < da.nc; k++ {
				if da.has[i][k] && db.has[k][j] {
					sum += da.val[i][k] * db.val[k][j]
					any = true
				}
			}
			if any {
				out.val[i][j] = sum
				out.has[i][j] = true
			}
		}
	}
	return out
}

// quickDims draws small-but-varied dimensions and densities from a seed.
func quickDims(seed int64) (*rand.Rand, int, int, int, float64) {
	rng := rand.New(rand.NewSource(seed))
	return rng, 1 + rng.Intn(14), 1 + rng.Intn(14), 1 + rng.Intn(14), 0.05 + 0.5*rng.Float64()
}

// TestQuickMxMAgainstDenseReference drives the saxpy kernel, the dot
// kernel (TranB), and the masked dot against the dense triple loop.
func TestQuickMxMAgainstDenseReference(t *testing.T) {
	f := func(seed int64) bool {
		rng, n, k, m, density := quickDims(seed)
		A := randMatrix(rng, n, k, density)
		B := randMatrix(rng, k, m, density)
		want := naiveDenseMxM(A, B)

		// Row-parallel Gustavson (saxpy).
		C := MustMatrix[float64](n, m)
		if err := MxM(C, NoMask, nil, PlusTimes[float64](), A, B, nil); err != nil {
			t.Logf("saxpy: %v", err)
			return false
		}
		if !want.equalsMatrix(C) {
			t.Logf("seed %d: saxpy diverges from dense reference", seed)
			return false
		}

		// Dot kernel: C = A · (Bᵀ)ᵀ via desc.TranB on a materialized Bᵀ.
		BT := MustMatrix[float64](m, k)
		if err := Transpose(BT, NoMask, nil, B, nil); err != nil {
			t.Logf("transpose: %v", err)
			return false
		}
		C2 := MustMatrix[float64](n, m)
		if err := MxM(C2, NoMask, nil, PlusTimes[float64](), A, BT, DescT1); err != nil {
			t.Logf("dot: %v", err)
			return false
		}
		if !want.equalsMatrix(C2) {
			t.Logf("seed %d: dot kernel diverges from dense reference", seed)
			return false
		}

		// Masked dot (the TC pattern): restrict to a random structural
		// mask; the reference simply drops positions outside the mask.
		M := randMatrix(rng, n, m, 0.4)
		C3 := MustMatrix[float64](n, m)
		if err := MxM(C3, StructMaskOf(M), nil, PlusTimes[float64](), A, BT, DescT1); err != nil {
			t.Logf("masked dot: %v", err)
			return false
		}
		masked := newDenseMat(n, m)
		dm := denseFrom(M)
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				if dm.has[i][j] && want.has[i][j] {
					masked.val[i][j] = want.val[i][j]
					masked.has[i][j] = true
				}
			}
		}
		if !masked.equalsMatrix(C3) {
			t.Logf("seed %d: masked dot diverges from dense reference", seed)
			return false
		}

		// The dot's overlap trim, on TC's shape: a tril-shaped A against a
		// triu-shaped Bᵀ held by row, so row pairs are disjoint (i < j),
		// touch at one column (i = j) or nest, unmasked and under M.
		L, U := MustMatrix[float64](n, k), MustMatrix[float64](m, k)
		if err := Select(L, NoMask, nil, Tril[float64](), A, 0, nil); err != nil {
			t.Logf("tril: %v", err)
			return false
		}
		if err := Select(U, NoMask, nil, Triu[float64](), BT, 0, nil); err != nil {
			t.Logf("triu: %v", err)
			return false
		}
		UT := MustMatrix[float64](k, m)
		if err := Transpose(UT, NoMask, nil, U, nil); err != nil {
			t.Logf("transpose: %v", err)
			return false
		}
		wantLU := naiveDenseMxM(L, UT)
		for _, mask := range []Mask{NoMask, StructMaskOf(M)} {
			C4 := MustMatrix[float64](n, m)
			if err := MxM(C4, mask, nil, PlusTimes[float64](), L, U, DescT1); err != nil {
				t.Logf("tril·triuᵀ dot: %v", err)
				return false
			}
			// ANY stops at the first shared column: present exactly where
			// the sum is, holding a column both rows share.
			C5 := MustMatrix[float64](n, m)
			if err := MxM(C5, mask, nil, AnySecondI[float64, float64, float64](), L, U, DescT1); err != nil {
				t.Logf("tril·triuᵀ any.secondi dot: %v", err)
				return false
			}
			dl, du, d4, d5 := denseFrom(L), denseFrom(U), denseFrom(C4), denseFrom(C5)
			for i := 0; i < n; i++ {
				for j := 0; j < m; j++ {
					want, has := wantLU.val[i][j], wantLU.has[i][j]
					if mask.Exists() && !dm.has[i][j] {
						want, has = 0, false
					}
					kk := int(d5.val[i][j])
					if d4.has[i][j] != has || d4.val[i][j] != want || d5.has[i][j] != has ||
						has && !(dl.has[i][kk] && du.has[j][kk]) {
						t.Logf("seed %d: tril·triuᵀ dot at (%d,%d): plus.times %v/%v, any.secondi %v/%v, want %v/%v",
							seed, i, j, d4.has[i][j], d4.val[i][j], d5.has[i][j], kk, has, want)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMxVFastPathsAgainstDenseReference compares the pull kernel —
// which silently dispatches to the monomorphized plus.second and
// plus.pair fast paths whenever u is dense — against a dense dot-per-row
// loop, on both dense u (fast path) and sparse u (generic path). plus.pair
// also runs over a bitmap u with holes (the counted branch) and
// accumulates into a bitmap w (the in-place branch).
func TestQuickMxVFastPathsAgainstDenseReference(t *testing.T) {
	f := func(seed int64) bool {
		rng, n, m, _, density := quickDims(seed)
		A := randMatrix(rng, n, m, density)
		da := denseFrom(A)
		uFull := DenseVector(m, 0.0)
		uVals := make([]float64, m)
		for j := 0; j < m; j++ {
			uVals[j] = float64(rng.Intn(9))
			uFull.SetElement(uVals[j], j)
		}
		uSparse := MustVector[float64](m)
		for j := 0; j < m; j++ {
			uSparse.SetElement(uVals[j], j)
		}
		uSparse.Wait()
		uSparse.ConvertTo(FormatSparse)

		type semiringCase struct {
			s   Semiring[float64, float64, float64]
			ref func(av, uv float64) float64
		}
		for _, sc := range []semiringCase{
			{PlusSecond[float64, float64](), func(_, uv float64) float64 { return uv }},
		} {
			want := make([]float64, n)
			has := make([]bool, n)
			for i := 0; i < n; i++ {
				for j := 0; j < m; j++ {
					if da.has[i][j] {
						want[i] += sc.ref(da.val[i][j], uVals[j])
						has[i] = true
					}
				}
			}
			for _, u := range []*Vector[float64]{uFull, uSparse} {
				w := MustVector[float64](n)
				if err := MxV(w, NoVMask, nil, sc.s, A, u, nil); err != nil {
					t.Logf("%s: %v", sc.s.Name, err)
					return false
				}
				got := vdenseOf(w)
				for i := 0; i < n; i++ {
					gv, ok := got[i]
					if ok != has[i] || (ok && gv != want[i]) {
						t.Logf("seed %d %s: w[%d] = %v/%v, want %v/%v",
							seed, sc.s.Name, i, gv, ok, want[i], has[i])
						return false
					}
				}
			}
		}

		// plus.pair: w(i) = |A(i,:) ∩ u| on a sparse A, u's values unread.
		As := A.Dup()
		As.ConvertTo(FormatSparse)
		in := make([]bool, m)
		uBitmap, uHoles := MustVector[float64](m), MustVector[float64](m)
		for j := range in {
			if in[j] = rng.Intn(3) > 0; in[j] {
				uBitmap.SetElement(uVals[j], j)
				uHoles.SetElement(uVals[j], j)
			}
		}
		uBitmap.Wait()
		uBitmap.ConvertTo(FormatBitmap)
		uHoles.Wait()
		uHoles.ConvertTo(FormatSparse)
		wOld := make(map[int]int64)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				wOld[i] = int64(100 + i)
			}
		}
		plus := func(a, b int64) int64 { return a + b }
		for _, pc := range []struct {
			name    string
			u       *Vector[float64]
			uFormat Format
			accum   func(a, b int64) int64
		}{
			{"full u", uFull, FormatFull, nil},
			{"bitmap u", uBitmap, FormatBitmap, nil},
			{"sparse u", uHoles, FormatSparse, nil},
			{"bitmap u into bitmap w", uBitmap, FormatBitmap, plus},
		} {
			w := MustVector[int64](n)
			if pc.accum != nil {
				for i, x := range wOld {
					w.SetElement(x, i)
				}
				w.Wait()
				w.ConvertTo(FormatBitmap)
			}
			if pc.u.Format() != pc.uFormat || pc.accum != nil && w.Format() == FormatSparse {
				t.Logf("seed %d plus.pair %s: operands in the wrong format", seed, pc.name)
				return false
			}
			if err := MxV(w, NoVMask, pc.accum, PlusPair[float64, float64, int64](), As, pc.u, nil); err != nil {
				t.Logf("plus.pair %s: %v", pc.name, err)
				return false
			}
			got := vdenseOf(w)
			for i := 0; i < n; i++ {
				var count int64
				for j := 0; j < m; j++ {
					if da.has[i][j] && (pc.uFormat == FormatFull || in[j]) {
						count++
					}
				}
				want, has := count, count > 0
				if old, ok := wOld[i]; ok && pc.accum != nil {
					want, has = old+count, true
				}
				if gv, ok := got[i]; ok != has || ok && gv != want {
					t.Logf("seed %d plus.pair %s: w[%d] = %v/%v, want %v/%v", seed, pc.name, i, gv, ok, want, has)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMinSecondFastPathAgainstDenseReference covers the FastSV
// gather fast path (min.second over a bool matrix and int64 vector).
func TestQuickMinSecondFastPathAgainstDenseReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		var rows, cols []int
		var vals []bool
		present := make([][]bool, n)
		for i := range present {
			present[i] = make([]bool, n)
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.3 {
					present[i][j] = true
					rows = append(rows, i)
					cols = append(cols, j)
					vals = append(vals, true)
				}
			}
		}
		A, err := MatrixFromTuples(n, n, rows, cols, vals, nil)
		if err != nil {
			t.Logf("build: %v", err)
			return false
		}
		u := DenseVector(n, int64(0))
		uVals := make([]int64, n)
		for j := 0; j < n; j++ {
			uVals[j] = int64(rng.Intn(100))
			u.SetElement(uVals[j], j)
		}
		w := MustVector[int64](n)
		if err := MxV(w, NoVMask, nil, MinSecond[bool, int64](), A, u, nil); err != nil {
			t.Logf("MxV: %v", err)
			return false
		}
		got := vdenseOf(w)
		for i := 0; i < n; i++ {
			want, has := int64(0), false
			for j := 0; j < n; j++ {
				if present[i][j] && (!has || uVals[j] < want) {
					want, has = uVals[j], true
				}
			}
			gv, ok := got[i]
			if ok != has || (ok && gv != want) {
				t.Logf("seed %d: w[%d] = %v/%v, want %v/%v", seed, i, gv, ok, want, has)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEWiseAgainstDenseReference checks eWiseAdd (set union) and
// eWiseMult (set intersection) against their defining dense loops.
func TestQuickEWiseAgainstDenseReference(t *testing.T) {
	f := func(seed int64) bool {
		rng, n, m, _, density := quickDims(seed)
		A := randMatrix(rng, n, m, density)
		B := randMatrix(rng, n, m, density)
		da, db := denseFrom(A), denseFrom(B)
		// Any storage format may arrive (a full one only when every
		// cell is present; the matrix stays bitmap otherwise).
		A.ConvertTo(allFormats[rng.Intn(3)])
		B.ConvertTo(allFormats[rng.Intn(3)])

		add := MustMatrix[float64](n, m)
		if err := EWiseAdd(add, NoMask, nil, AddOp(PlusOp[float64]()), A, B, nil); err != nil {
			t.Logf("eWiseAdd: %v", err)
			return false
		}
		wantAdd := newDenseMat(n, m)
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				switch {
				case da.has[i][j] && db.has[i][j]:
					wantAdd.val[i][j], wantAdd.has[i][j] = da.val[i][j]+db.val[i][j], true
				case da.has[i][j]:
					wantAdd.val[i][j], wantAdd.has[i][j] = da.val[i][j], true
				case db.has[i][j]:
					wantAdd.val[i][j], wantAdd.has[i][j] = db.val[i][j], true
				}
			}
		}
		if !wantAdd.equalsMatrix(add) {
			t.Logf("seed %d: eWiseAdd diverges from dense reference", seed)
			return false
		}
		// The same union written over its first operand.
		acc := A.Dup()
		if err := EWiseAdd(acc, NoMask, nil, AddOp(PlusOp[float64]()), acc, B, nil); err != nil {
			t.Logf("eWiseAdd in place: %v", err)
			return false
		}
		if !wantAdd.equalsMatrix(acc) {
			t.Logf("seed %d: eWiseAdd over its first operand (%v, %v) diverges from dense reference", seed, A.Format(), B.Format())
			return false
		}

		mult := MustMatrix[float64](n, m)
		if err := EWiseMult(mult, NoMask, nil, TimesOp[float64](), A, B, nil); err != nil {
			t.Logf("eWiseMult: %v", err)
			return false
		}
		wantMult := newDenseMat(n, m)
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				if da.has[i][j] && db.has[i][j] {
					wantMult.val[i][j], wantMult.has[i][j] = da.val[i][j]*db.val[i][j], true
				}
			}
		}
		if !wantMult.equalsMatrix(mult) {
			t.Logf("seed %d: eWiseMult diverges from dense reference", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFusedBFSStepAgainstDenseReference checks FusedBFSStep's push
// with no depth vector (fuse.go) against a dense sweep: every
// unvisited column reachable from the frontier must be discovered with
// *some* in-frontier parent, and nothing else may change.
func TestQuickFusedBFSStepAgainstDenseReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		A := randMatrix(rng, n, n, 0.25)
		da := denseFrom(A)

		p := MustVector[int64](n)
		q := MustVector[int64](n)
		visited := make([]bool, n)
		inFrontier := make([]bool, n)
		for i := 0; i < n; i++ {
			switch rng.Intn(3) {
			case 0: // visited, not frontier
				p.SetElement(int64(i), i)
				visited[i] = true
			case 1: // frontier (visited by definition)
				p.SetElement(int64(i), i)
				q.SetElement(int64(i), i)
				visited[i] = true
				inFrontier[i] = true
			}
		}
		p.Wait()
		q.Wait()

		if _, err := FusedBFSStep(p, q, nil, A, nil, false); err != nil {
			t.Logf("fused: %v", err)
			return false
		}

		wantDiscovered := make(map[int]bool)
		for j := 0; j < n; j++ {
			if visited[j] {
				continue
			}
			for i := 0; i < n; i++ {
				if inFrontier[i] && da.has[i][j] {
					wantDiscovered[j] = true
					break
				}
			}
		}
		gotP := vdenseOf(p)
		gotQ := vdenseOf(q)
		if len(gotQ) != len(wantDiscovered) {
			t.Logf("seed %d: next frontier %d vertices, want %d", seed, len(gotQ), len(wantDiscovered))
			return false
		}
		for j := 0; j < n; j++ {
			parent, ok := gotP[j]
			switch {
			case visited[j]:
				if !ok || parent != int64(j) {
					t.Logf("seed %d: visited %d parent changed to %v/%v", seed, j, parent, ok)
					return false
				}
				if _, inQ := gotQ[j]; inQ {
					t.Logf("seed %d: visited %d re-entered the frontier", seed, j)
					return false
				}
			case wantDiscovered[j]:
				if !ok {
					t.Logf("seed %d: reachable %d not discovered", seed, j)
					return false
				}
				if !inFrontier[int(parent)] || !da.has[int(parent)][j] {
					t.Logf("seed %d: %d discovered via invalid parent %d", seed, j, parent)
					return false
				}
				if qp, inQ := gotQ[j]; !inQ || qp != parent {
					t.Logf("seed %d: %d missing from next frontier (%v)", seed, j, gotQ[j])
					return false
				}
			default:
				if ok {
					t.Logf("seed %d: unreachable %d acquired parent %d", seed, j, parent)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
