package grb

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"lagraph/internal/parallel"
)

// bfsLevel advances one BFS by a level with the generic calls the fused
// step replaces, its reference: q⟨¬s(p), r⟩ = qᵀ any.secondi A (pull:
// Aᵀ any.secondi q), then p⟨s(q)⟩ = q and, unless d is nil,
// d⟨s(q)⟩ = level.
func bfsLevel(p, q *Vector[int64], d *Vector[int32], A, AT *Matrix[float64], pull bool, level int32) error {
	var err error
	if pull {
		err = MxV(q, StructVMaskOf(p).Not(), nil, AnySecondI[float64, int64, int64](), AT, q, DescR)
	} else {
		err = VxM(q, StructVMaskOf(p).Not(), nil, AnySecondI[int64, float64, int64](), q, A, DescR)
	}
	if err == nil {
		err = AssignVector(p, StructVMaskOf(q), nil, q, All, nil)
	}
	if err == nil && d != nil {
		err = AssignVectorScalar(d, StructVMaskOf(q), nil, level, All, nil)
	}
	return err
}

// bfsFused advances k BFSs, one a row of F, P and D, by one fused level:
// through FusedBFSStep on the rows as vectors when k = 1.
func bfsFused(F, P *Matrix[int64], D *Matrix[int32], A, AT *Matrix[float64], pull bool) (int, error) {
	if F.nr == 1 {
		return FusedBFSStep((*Vector[int64])(P), (*Vector[int64])(F), (*Vector[int32])(D), A, AT, pull)
	}
	return FusedFrontierStep(F, F, P, D, A, AT, pull)
}

// rowsOfVectors is the matrix whose row k is vs[k], as denseOf keys it.
func rowsOfVectors[T Value](vs []*Vector[T]) map[coord]T {
	out := map[coord]T{}
	for k, v := range vs {
		for j, x := range vdenseOf(v) {
			out[coord{k, j}] = x
		}
	}
	return out
}

// bfsGraph is an n-vertex digraph and its transpose, sparse, bitmap or
// full (complete, over at most 32 vertices), with pending tuples if asked.
func bfsGraph(t *testing.T, rng *rand.Rand, n int, format Format, pending bool) (*Matrix[float64], *Matrix[float64]) {
	if format == FormatFull {
		A := randMatrix(rng, n%32+1, n%32+1, 1)
		AT := NewTranspose(A)
		A.ConvertTo(FormatFull)
		AT.ConvertTo(FormatFull)
		return A, AT
	}
	A, AT := randGraph(t, rng, n, 1+rng.Intn(4), pending)
	A.ConvertTo(format)
	AT.ConvertTo(format)
	return A, AT
}

// TestFusedBFSStep: level by level, FusedFrontierStep's any.secondi rule
// leaves the frontier, parents and depths its generic formulation
// (bfsLevel) leaves, push or pull, at k = 1 through FusedBFSStep and at
// k > 1 row by row, over sparse, bitmap, full and pending graphs. Parents
// are compared too: both take a vertex's least frontier in-neighbour. A
// push with no D from a visited set and frontier no traversal reaches
// (BFSStep's caller may edit them) matches as well.
func TestFusedBFSStep(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 36; trial++ {
		format := []Format{FormatSparse, FormatBitmap, FormatFull}[trial%3]
		A, AT := bfsGraph(t, rng, 20+rng.Intn(300), format, trial%2 == 1 && format != FormatFull)
		n := A.NRows()
		ns := 1 + rng.Intn(4)
		label := fmt.Sprintf("trial %d (n %d, %v, k %d)", trial, n, format, ns)
		F, P, D := MustMatrix[int64](ns, n), MustMatrix[int64](ns, n), MustMatrix[int32](ns, n)
		q, p, d := make([]*Vector[int64], ns), make([]*Vector[int64], ns), make([]*Vector[int32], ns)
		for k := range ns {
			src := rng.Intn(n)
			F.SetElement(int64(src), k, src)
			P.SetElement(int64(src), k, src)
			D.SetElement(0, k, src)
			q[k], p[k], d[k] = MustVector[int64](n), MustVector[int64](n), MustVector[int32](n)
			q[k].SetElement(int64(src), src)
			p[k].SetElement(int64(src), src)
			d[k].SetElement(0, src)
		}
		for level := int32(1); ; level++ {
			pull := rng.Intn(2) == 0
			nf, err := bfsFused(F, P, D, A, AT, pull)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			want := 0
			for k := range ns {
				if err := bfsLevel(p[k], q[k], d[k], A, AT, pull, level); err != nil {
					t.Fatal(err)
				}
				want += q[k].NVals()
			}
			what := fmt.Sprintf("%s, level %d, pull %v", label, level, pull)
			if nf != want {
				t.Fatalf("%s: frontier of %d, generic %d", what, nf, want)
			}
			matricesEqual(t, F, rowsOfVectors(q), what+": frontier")
			matricesEqual(t, P, rowsOfVectors(p), what+": parents")
			matricesEqual(t, D, rowsOfVectors(d), what+": depths")
			if nf == 0 {
				break
			}
		}

		// BFSStep's push: any visited set, any frontier within it, no D.
		pf, qf, pg, qg := MustVector[int64](n), MustVector[int64](n), MustVector[int64](n), MustVector[int64](n)
		for i := range n {
			if r := rng.Intn(3); r > 0 {
				pf.SetElement(int64(i), i)
				pg.SetElement(int64(i), i)
				if r == 2 {
					qf.SetElement(int64(i), i)
					qg.SetElement(int64(i), i)
				}
			}
		}
		if _, err := FusedBFSStep(pf, qf, nil, A, nil, false); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if err := bfsLevel(pg, qg, nil, A, nil, false, 0); err != nil {
			t.Fatal(err)
		}
		vectorsEqual(t, qf, vdenseOf(qg), label+": BFSStep frontier")
		vectorsEqual(t, pf, vdenseOf(pg), label+": BFSStep parents")
	}
}

// TestFusedBFSPushStepEquivalence: one push from a single source through
// FusedBFSStep reaches the frontier and visited set of VxM + AssignVector.
func TestFusedBFSPushStepEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(25)
		A := randMatrix(rng, n, n, 0.15)
		src := rng.Intn(n)

		// Unfused reference: one push step + parent assign.
		pRef := MustVector[int64](n)
		qRef := MustVector[int64](n)
		pRef.SetElement(int64(src), src)
		qRef.SetElement(int64(src), src)
		s := AnySecondI[int64, float64, int64]()
		if err := VxM(qRef, StructVMaskOf(pRef).Not(), nil, s, qRef, A, DescR); err != nil {
			return false
		}
		if err := AssignVector(pRef, StructVMaskOf(qRef), nil, qRef, All, nil); err != nil {
			return false
		}

		// Fused step: a push with no depth vector.
		p := MustVector[int64](n)
		q := MustVector[int64](n)
		p.SetElement(int64(src), src)
		q.SetElement(int64(src), src)
		if _, err := FusedBFSStep(p, q, nil, A, nil, false); err != nil {
			return false
		}

		// Same frontier support and same visited set (parent values may
		// differ under any semantics, but with a single-source frontier
		// they cannot here).
		if q.NVals() != qRef.NVals() || p.NVals() != pRef.NVals() {
			return false
		}
		ok := true
		qRef.Iterate(func(i int, _ int64) {
			if _, err := q.ExtractElement(i); err != nil {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestFusedBFSFullTraversal: a push-only traversal on the fused step with
// no D, as BFSParentPushOnly runs it but driven by the counts the step
// returns, so no caller sorts the jumbled frontier between steps, leaves
// the parents of the generic calls' traversal, whether A is sparse, bitmap
// or full (read in place).
func TestFusedBFSFullTraversal(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 60
	for _, density := range []float64{0.05, 1} {
		A := randMatrix(rng, n, n, density)
		for _, format := range []Format{FormatSparse, FormatBitmap, FormatFull} {
			if format == FormatFull && density < 1 {
				continue
			}
			X := A.Dup()
			X.ConvertTo(format)
			p, q, pg, qg := MustVector[int64](n), MustVector[int64](n), MustVector[int64](n), MustVector[int64](n)
			for _, v := range []*Vector[int64]{p, q, pg, qg} {
				v.SetElement(0, 0)
			}
			for nq := 1; nq > 0; {
				var err error
				if nq, err = FusedBFSStep(p, q, nil, X, nil, false); err != nil {
					t.Fatal(err)
				}
				if err := bfsLevel(pg, qg, nil, A, nil, false, 0); err != nil {
					t.Fatal(err)
				}
			}
			vectorsEqual(t, p, vdenseOf(pg), fmt.Sprintf("density %v, %v A", density, format))
		}
	}
}

// TestFusedBFSValidation: the step refuses a non-square A, a vector of
// another length, a pull without AT or D and a path count without D.
func TestFusedBFSValidation(t *testing.T) {
	p, q, d := MustVector[int64](3), MustVector[int64](3), MustVector[int32](3)
	q.SetElement(0, 0)
	B := MustMatrix[float64](3, 3)
	for _, c := range []struct {
		what string
		err  error
		want Info
	}{
		{"non-square A", firstErr(FusedBFSStep(p, q, d, MustMatrix[float64](3, 4), nil, false)), DimensionMismatch},
		{"short p", firstErr(FusedBFSStep(MustVector[int64](2), q, d, B, B, false)), DimensionMismatch},
		{"short d", firstErr(FusedBFSStep(p, q, MustVector[int32](2), B, B, false)), DimensionMismatch},
		{"pull without AT", firstErr(FusedBFSStep(p, q, d, B, nil, true)), NullPointer},
		{"pull without D", firstErr(FusedBFSStep(p, q, nil, B, B, true)), NullPointer},
		{"path count without D", firstErr(FusedFrontierStep(MustMatrix[float64](1, 3), MustMatrix[float64](1, 3), MustMatrix[float64](1, 3), nil, B, B, false)), NullPointer},
	} {
		if InfoOf(c.err) != c.want {
			t.Errorf("%s: %v, want %v", c.what, c.err, c.want)
		}
	}
}

func TestPoolReuseKeepsResultsCorrect(t *testing.T) {
	prev := SetPoolEnabled(true)
	defer SetPoolEnabled(prev)
	rng := rand.New(rand.NewSource(10))
	// Interleave many vxm calls of different types; pooled accumulators
	// must never leak state across calls.
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(20)
		A := randMatrix(rng, n, n, 0.3)
		u := randVector(rng, n, 0.5)
		w1 := MustVector[float64](n)
		if err := VxM(w1, NoVMask, nil, PlusTimes[float64](), u, A, nil); err != nil {
			t.Fatal(err)
		}
		SetPoolEnabled(false)
		w2 := MustVector[float64](n)
		if err := VxM(w2, NoVMask, nil, PlusTimes[float64](), u, A, nil); err != nil {
			t.Fatal(err)
		}
		SetPoolEnabled(true)
		g1, g2 := vdenseOf(w1), vdenseOf(w2)
		if len(g1) != len(g2) {
			t.Fatalf("pooled vs unpooled nvals differ: %d vs %d", len(g1), len(g2))
		}
		for i, x := range g1 {
			if g2[i] != x {
				t.Fatalf("pooled vs unpooled value at %d: %v vs %v", i, x, g2[i])
			}
		}
	}
}

// TestFastPathMatchesGenericPull: the two monomorphic pull loops read only
// A's pattern, so they must agree with the generic kernel (forced by a
// sparse copy of u) for a bool, a float64 and an int64 A alike, for a
// full and a bitmap u, into an empty w and — the in-place case — into a
// full or bitmap w under an accumulator.
func TestFastPathMatchesGenericPull(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	plus := func(a, b float64) float64 { return a + b }
	minI := func(a, b int64) int64 { return min(a, b) }
	for trial := 0; trial < 12; trial++ {
		n := 5 + rng.Intn(30)
		A := randMatrix(rng, n, n, 0.2)
		rows, cols, vals := A.ExtractTuples()
		ints, bools := make([]int64, len(vals)), make([]bool, len(vals))
		for k, x := range vals {
			ints[k], bools[k] = int64(x), true
		}
		AI, _ := MatrixFromTuples(n, n, rows, cols, ints, nil)
		AB, _ := MatrixFromTuples(n, n, rows, cols, bools, nil)
		randF := func() float64 { return float64(rng.Intn(10)) }
		randI := func() int64 { return int64(rng.Intn(100)) }
		pullFastAgrees(t, rng, A, PlusSecond[float64, float64](), plus, randF)
		pullFastAgrees(t, rng, AI, PlusSecond[int64, float64](), plus, randF)
		pullFastAgrees(t, rng, AB, PlusSecond[bool, float64](), plus, randF)
		pullFastAgrees(t, rng, A, MinSecond[float64, int64](), minI, randI)
		pullFastAgrees(t, rng, AI, MinSecond[int64, int64](), minI, randI)
		pullFastAgrees(t, rng, AB, MinSecond[bool, int64](), minI, randI)
		// The loops are chosen by the constructor, not by the exported
		// Name: a semiring the caller assembles under a built-in's name
		// runs the generic kernel.
		pullFastAgrees(t, rng, A, Semiring[float64, float64, float64]{
			Name: "plus.second", Add: MaxMonoid[float64](), Mul: TimesOp[float64]()}, plus, randF)
		pullFastAgrees(t, rng, AI, Semiring[int64, int64, int64]{
			Name: "min.second", Add: PlusMonoid[int64](), Mul: TimesOp[int64]()}, minI, randI)
	}
}

func pullFastAgrees[TA, TV Value](t *testing.T, rng *rand.Rand, A *Matrix[TA],
	s Semiring[TA, TV, TV], accum func(TV, TV) TV, rnd func() TV) {

	t.Helper()
	n := A.NRows()
	randDense := func(f Format) *Vector[TV] {
		v := MustVector[TV](n)
		for i := 0; i < n; i++ {
			if f == FormatFull || rng.Intn(3) > 0 {
				v.SetElement(rnd(), i)
			}
		}
		v.ConvertTo(f)
		return v
	}
	for _, fu := range []Format{FormatFull, FormatBitmap} {
		u := randDense(fu)
		uSparse := u.Dup()
		uSparse.ConvertTo(FormatSparse)
		for _, w0 := range []*Vector[TV]{MustVector[TV](n), randDense(FormatFull), randDense(FormatBitmap)} {
			acc := accum
			if w0.Format() == FormatSparse {
				acc = nil
			}
			got, want := w0.Dup(), w0.Dup()
			if err := MxV(got, NoVMask, acc, s, A, u, nil); err != nil {
				t.Fatal(err)
			}
			if err := MxV(want, NoVMask, acc, s, A, uSparse, nil); err != nil {
				t.Fatal(err)
			}
			vectorsEqual(t, got, vdenseOf(want), s.Name+" u "+fu.String()+" into "+w0.Format().String())
		}
	}
}

func TestMinSecondFastPathMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(30)
		var rows, cols []int
		var vals []bool
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.3 {
					rows = append(rows, i)
					cols = append(cols, j)
					vals = append(vals, true)
				}
			}
		}
		A, err := MatrixFromTuples(n, n, rows, cols, vals, nil)
		if err != nil {
			t.Fatal(err)
		}
		u := DenseVector(n, int64(0))
		for i := 0; i < n; i++ {
			u.SetElement(int64(rng.Intn(100)), i)
		}
		s := MinSecond[bool, int64]()
		w1 := MustVector[int64](n)
		if err := MxV(w1, NoVMask, nil, s, A, u, nil); err != nil {
			t.Fatal(err)
		}
		// Generic path via a sparse-format u.
		us := u.Dup()
		us.ConvertTo(FormatSparse)
		w2 := MustVector[int64](n)
		if err := MxV(w2, NoVMask, nil, s, A, us, nil); err != nil {
			t.Fatal(err)
		}
		g1, g2 := vdenseOf(w1), vdenseOf(w2)
		if len(g1) != len(g2) {
			t.Fatalf("nvals %d vs %d", len(g1), len(g2))
		}
		for i, x := range g1 {
			if g2[i] != x {
				t.Fatalf("at %d fast %v generic %v", i, x, g2[i])
			}
		}
	}
}

// TestFusedMinPlusPushStep: the fused step over every edge of A leaves in
// t what VxM(min.plus) over Select(ValueLE) of A with thunk MaxOf then
// EWiseAddV(min) leave, files exactly the vertices of t that dropped below
// their old values, each live in bin ⌊t/Δ⌋ and in no other, and returns
// nvals(tReq) — for a sparse, bitmap, full and pending A (weights 0 … 9
// and NaN, which the Select drops), a sorted, jumbled and bitmap f, with
// the pool on and off.
func TestFusedMinPlusPushStep(t *testing.T) {
	defer SetPoolEnabled(SetPoolEnabled(true))
	rng := rand.New(rand.NewSource(13))
	inf := MaxOf[float64]()
	less := BinaryOp[float64, float64, bool]{Name: "lt", F: func(a, b float64) bool { return a < b }}
	weight := func() float64 {
		if w := rng.Intn(11); w < 10 {
			return float64(w)
		}
		return math.NaN()
	}
	randA := func(n int, form string) *Matrix[float64] {
		density := 0.2
		if form == "full" {
			density = 1
		}
		var rows, cols []int
		var vals []float64
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Float64() < density {
					rows, cols, vals = append(rows, i), append(cols, j), append(vals, weight())
				}
			}
		}
		A, err := MatrixFromTuples(n, n, rows, cols, vals, nil)
		if err != nil {
			t.Fatal(err)
		}
		switch form {
		case "bitmap":
			A.ConvertTo(FormatBitmap)
		case "full":
			A.ConvertTo(FormatFull)
		case "pending":
			for k := 0; k < n; k++ {
				if i, j := rng.Intn(n), rng.Intn(n); k%3 == 0 {
					A.RemoveElement(i, j)
				} else {
					A.SetElement(weight(), i, j)
				}
			}
		}
		if want := map[string]Format{"bitmap": FormatBitmap, "full": FormatFull}[form]; A.Format() != want || (form == "pending") != (A.PendingTuples() > 0) {
			t.Fatalf("A is %s with %d pending, want %s", A.Format(), A.PendingTuples(), form)
		}
		return A
	}
	for trial := 0; trial < 80; trial++ {
		n := 5 + rng.Intn(40)
		aForm := []string{"sparse", "bitmap", "full", "pending"}[trial%4]
		fForm := []string{"sorted", "jumbled", "bitmap"}[trial%3]
		pool := trial%2 == 0
		delta := []float64{0.5, 3, 4, 9}[rng.Intn(4)]
		label := fmt.Sprintf("trial %d: A %s, f %s, pool %v, Δ %v", trial, aForm, fForm, pool, delta)
		SetPoolEnabled(pool)

		A := randA(n, aForm)
		d := DenseVector(n, inf)
		bins, err := NewBins(d, delta)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ { // t's values are set after NewBins, so no bin holds them
			if rng.Intn(3) > 0 {
				d.val[i] = float64(rng.Intn(40))
			}
		}
		var fIdx []int
		var fVal []float64
		for _, i := range rng.Perm(n)[:1+rng.Intn(n/2)] {
			fIdx, fVal = append(fIdx, i), append(fVal, float64(rng.Intn(20)))
		}
		f, err := VectorFromTuples(n, fIdx, fVal, nil)
		if err != nil {
			t.Fatal(err)
		}
		switch fForm {
		case "jumbled":
			rng.Shuffle(len(f.idx), func(a, b int) {
				f.idx[a], f.idx[b] = f.idx[b], f.idx[a]
				f.val[a], f.val[b] = f.val[b], f.val[a]
			})
			f.jumbled = true
		case "bitmap":
			f.ConvertTo(FormatBitmap)
		}
		fRef, dRef := f.Dup(), d.Dup()

		reached, err := FusedMinPlusPushStep(bins, f, A)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}

		// The unfused reference: A's edges as a copy (A's pending work is
		// now assembled), then Algorithm 5's relaxation.
		edges := MustMatrix[float64](n, n)
		if err := Select(edges, NoMask, nil, ValueLE[float64](), A, inf, nil); err != nil {
			t.Fatal(err)
		}
		tReq := MustVector[float64](n)
		if err := VxM(tReq, NoVMask, nil, MinPlus[float64](), fRef, edges, nil); err != nil {
			t.Fatal(err)
		}
		tless := MustVector[bool](n)
		if err := EWiseMultV(tless, NoVMask, nil, less, tReq, dRef, nil); err != nil {
			t.Fatal(err)
		}
		if err := EWiseAddV(dRef, NoVMask, nil, MinOp[float64](), dRef, tReq, nil); err != nil {
			t.Fatal(err)
		}
		lowered := MustVector[float64](n)
		if err := ApplyV(lowered, VMaskOf(tless), nil, Identity[float64](), tReq, nil); err != nil {
			t.Fatal(err)
		}
		if d.Format() != FormatFull {
			t.Fatalf("%s: t left %s", label, d.Format())
		}
		vectorsEqual(t, d, vdenseOf(dRef), label+": t")
		if reached != tReq.NVals() {
			t.Fatalf("%s: reached %d, nvals(tReq) %d", label, reached, tReq.NVals())
		}
		liveIn := map[int]int{} // vertex → the bin it is live in
		for k, l := range bins.at {
			for _, v := range bins.lists[l] {
				if !bins.live(v, k) {
					continue
				}
				if other, ok := liveIn[int(v)]; ok && other != k {
					t.Fatalf("%s: vertex %d live in bins %d and %d", label, v, other, k)
				}
				liveIn[int(v)] = k
			}
		}
		if want := vdenseOf(lowered); len(liveIn) != len(want) {
			t.Fatalf("%s: %d vertices live in a bin, %d lowered", label, len(liveIn), len(want))
		} else {
			for i, x := range want {
				if k, ok := liveIn[i]; !ok || k != int(x/delta) || d.val[i] != x {
					t.Fatalf("%s: lowered %d to %v, live in bin %d (%v) at %v", label, i, x, k, ok, d.val[i])
				}
			}
		}
	}

	// Errors: a non-square A, a vector of the wrong length, a t not full,
	// a Δ that is not positive, a bin number past the int range.
	f := MustVector[float64](3)
	bins, err := NewBins(DenseVector(3, inf), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := firstErr(FusedMinPlusPushStep(bins, f, MustMatrix[float64](3, 4))); InfoOf(err) != DimensionMismatch {
		t.Fatalf("non-square A: %v", err)
	}
	if err := firstErr(FusedMinPlusPushStep(bins, f, MustMatrix[float64](2, 2))); InfoOf(err) != DimensionMismatch {
		t.Fatalf("short t: %v", err)
	}
	if err := firstErr(FusedMinPlusPushStep(bins, MustVector[float64](4), MustMatrix[float64](3, 3))); InfoOf(err) != DimensionMismatch {
		t.Fatalf("long f: %v", err)
	}
	sparseT := DenseVector(3, inf)
	sparseT.RemoveElement(1)
	if _, err := NewBins(sparseT, 1); InfoOf(err) != InvalidObject {
		t.Fatalf("t with a hole: %v", err)
	}
	for _, delta := range []float64{0, -1, math.NaN()} {
		if _, err := NewBins(DenseVector(3, inf), delta); InfoOf(err) != InvalidValue {
			t.Fatalf("Δ = %v: %v", delta, err)
		}
	}
	A, err := MatrixFromTuples(3, 3, []int{0}, []int{1}, []float64{100}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t0 := DenseVector(3, inf)
	t0.val[0] = 0
	if bins, err = NewBins(t0, 1e-300); err != nil {
		t.Fatal(err)
	}
	f0, err := VectorFromTuples(3, []int{0}, []float64{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := firstErr(FusedMinPlusPushStep(bins, f0, A)); InfoOf(err) != InvalidValue || !strings.Contains(err.Error(), "delta") {
		t.Fatalf("bin 1e302: %v, want an InvalidValue error naming delta", err)
	}
}

// TestBinsNextAndTake holds Bins to a model of delta-stepping's buckets
// under random lowerings interleaved with Next and Take: Next opens the
// lowest bin above the open one that holds a vertex at its current t, Take
// hands out the open bin's vertices lowered into it since the last Take
// (since Next, all of them), each once, at its value in t; a lowering into
// a bin below the open one (any bin, once the run is over) is an
// InvalidValue error that files nothing, and once Next finds no bin the
// run is over. A vertex lowered twice between two Takes is handed out
// once, at its last value.
func TestBinsNextAndTake(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 40; trial++ {
		n, delta := 10+rng.Intn(30), []float64{0.5, 1, 3, 1e-9}[trial%4]
		tv := DenseVector(n, MaxOf[float64]())
		tv.val[0] = 0
		b, err := NewBins(tv, delta)
		if err != nil {
			t.Fatal(err)
		}
		bin := func(x float64) int { return int(x / delta) }
		open, started, isOpen, over := 0, false, false, false
		fresh := map[int]bool{} // lowered into the open bin since the last Take
		inOpen := func(v int) bool { return isOpen && tv.val[v] < MaxOf[float64]() && bin(tv.val[v]) == open }
		f := MustVector[float64](n)
		for op := 0; op < 300; op++ {
			switch r := rng.Intn(10); {
			case r < 6: // lower a vertex, often into the open bin
				v, x := rng.Intn(n), float64(rng.Intn(80))*0.25
				if isOpen && r < 3 {
					x = float64(open)*delta + rng.Float64()*delta/2
				}
				if x >= tv.val[v] {
					break
				}
				old := tv.val[v]
				tv.val[v] = x
				err := b.file(v, x)
				if below := over || started && bin(x) < open; below {
					if InfoOf(err) != InvalidValue {
						t.Fatalf("trial %d op %d: lowering %d to %v, bin %d below the open bin %d: err %v", trial, op, v, x, bin(x), open, err)
					}
					tv.val[v] = old
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				fresh[v] = fresh[v] || inOpen(v)
			case r < 8: // take
				want := map[int]bool{}
				for v := 0; v < n; v++ {
					if inOpen(v) && fresh[v] {
						want[v] = true
					}
				}
				takeMatches(t, fmt.Sprintf("trial %d op %d", trial, op), b, f, tv, want)
				fresh = map[int]bool{}
			default: // next
				want, ok := 0, false
				for v := 0; v < n; v++ {
					if x := tv.val[v]; !over && x < MaxOf[float64]() && (!started || bin(x) > open) && (!ok || bin(x) < want) {
						want, ok = bin(x), true
					}
				}
				got, gotOK := b.Next()
				if got != want || gotOK != ok {
					t.Fatalf("trial %d op %d: Next = %d, %v; want %d, %v", trial, op, got, gotOK, want, ok)
				}
				if isOpen, over = ok, !ok; !ok {
					break
				}
				open, started = got, true
				fresh = map[int]bool{}
				for v := 0; v < n; v++ {
					fresh[v] = inOpen(v)
				}
			}
		}
	}

	// Bin 1 (Δ = 1) holds vertex 1; vertex 2 is lowered into it twice and
	// vertex 1 once more, so the next Take hands each out once, at 1.25.
	tv := DenseVector(3, MaxOf[float64]())
	tv.val[1] = 1.75
	b, err := NewBins(tv, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := MustVector[float64](3)
	if k, ok := b.Next(); k != 1 || !ok {
		t.Fatalf("Next = %d, %v; want 1, true", k, ok)
	}
	takeMatches(t, "first take", b, f, tv, map[int]bool{1: true})
	for _, low := range []struct {
		v int
		x float64
	}{{2, 1.5}, {2, 1.25}, {1, 1.25}} {
		tv.val[low.v] = low.x
		if err := b.file(low.v, low.x); err != nil {
			t.Fatal(err)
		}
	}
	takeMatches(t, "second take", b, f, tv, map[int]bool{1: true, 2: true})
	takeMatches(t, "third take", b, f, tv, map[int]bool{})
}

// takeMatches fails unless b.Take hands out exactly want's vertices, once
// each, at their values in tv.
func takeMatches(t *testing.T, what string, b *Bins[float64], f, tv *Vector[float64], want map[int]bool) {
	t.Helper()
	got := b.Take(f)
	if got != len(want) || f.NVals() != got {
		t.Fatalf("%s: Take = %d (nvals %d), want %v", what, got, f.NVals(), want)
	}
	took := map[int]bool{}
	f.Iterate(func(v int, x float64) {
		if !want[v] || took[v] || x != tv.val[v] {
			t.Fatalf("%s: took %d at %v (twice: %v), t %v, want %v", what, v, x, took[v], tv.val[v], want)
		}
		took[v] = true
	})
}

// firstErr drops a call's first result.
func firstErr(_ int, err error) error { return err }

// bcTraversal is one batched-BC forward state: the current frontier F, the
// path counts P, the depths D, and the frontiers of the levels so far.
type bcTraversal struct {
	F, P   *Matrix[float64]
	D      *Matrix[int32]
	levels []*Matrix[float64]
}

// newBCTraversal starts a traversal at sources, one per row, at depth 0;
// pending leaves F, P and D as pending tuples.
func newBCTraversal(t *testing.T, n int, sources []int, pending bool) *bcTraversal {
	ns := len(sources)
	s := &bcTraversal{F: MustMatrix[float64](ns, n), P: MustMatrix[float64](ns, n), D: MustMatrix[int32](ns, n)}
	for k, src := range sources {
		s.F.SetElement(1, k, src)
		s.P.SetElement(1, k, src)
		s.D.SetElement(0, k, src)
	}
	if !pending {
		s.F.Wait()
		s.P.Wait()
		s.D.Wait()
	}
	if (s.P.PendingTuples() > 0) != pending {
		t.Fatalf("P has %d pending tuples", s.P.PendingTuples())
	}
	return s
}

// fusedLevel advances s by one FusedFrontierStep; genericLevel by its
// generic formulation, C⟨¬s(P), r⟩ = F plus.first A (pull: by AT through
// the transpose descriptor), P += C, D⟨s(C)⟩ = d + 1.
func (s *bcTraversal) fusedLevel(A, AT *Matrix[float64], pull bool) (int, error) {
	C := MustMatrix[float64](s.F.Dims())
	nf, err := FusedFrontierStep(C, s.F, s.P, s.D, A, AT, pull)
	s.F, s.levels = C, append(s.levels, C)
	return nf, err
}

func (s *bcTraversal) genericLevel(A, AT *Matrix[float64], pull bool, d int32) (int, error) {
	C := MustMatrix[float64](s.F.Dims())
	X, desc := A, DescR
	if pull {
		X, desc = AT, DescRT1
	}
	if err := MxM(C, StructMaskOf(s.P).Not(), nil, PlusFirst[float64, float64](), s.F, X, desc); err != nil {
		return 0, err
	}
	if err := EWiseAdd(s.P, NoMask, nil, AddOp(PlusOp[float64]()), s.P, C, nil); err != nil {
		return 0, err
	}
	if err := AssignMatrixScalar(s.D, StructMaskOf(C), nil, d+1, All, All, nil); err != nil {
		return 0, err
	}
	s.F, s.levels = C, append(s.levels, C)
	return C.NVals(), nil
}

// backward runs the backward phase over s's levels, deepest first, into a
// B of ones: fused by FusedPlusFirstBackStep, else as Algorithm 3 writes it,
// W⟨s(level d+1), r⟩ = B ÷ P, W⟨s(level d), r⟩ = W plus.first AT,
// B += W × P.
func (s *bcTraversal) backward(A, AT *Matrix[float64], fused bool) (*Matrix[float64], error) {
	B := MustMatrix[float64](s.P.Dims())
	if err := AssignMatrixScalar(B, NoMask, nil, 1, All, All, nil); err != nil {
		return nil, err
	}
	plus := func(a, b float64) float64 { return a + b }
	for d := len(s.levels) - 2; d >= 1; d-- {
		if fused {
			if err := FusedPlusFirstBackStep(B, s.levels[d-1], s.P, s.D, A); err != nil {
				return nil, err
			}
			continue
		}
		W := MustMatrix[float64](s.P.Dims())
		if err := EWiseMult(W, StructMaskOf(s.levels[d]), nil, DivOp[float64](), B, s.P, DescR); err != nil {
			return nil, err
		}
		if err := MxM(W, StructMaskOf(s.levels[d-1]), nil, PlusFirst[float64, float64](), W, AT, DescR); err != nil {
			return nil, err
		}
		if err := EWiseMult(B, NoMask, plus, TimesOp[float64](), W, s.P, nil); err != nil {
			return nil, err
		}
	}
	return B, nil
}

// randGraph is an n-vertex digraph of out-degree 0 … 2·deg, its transpose,
// and, with pending, a few dozen insertions and deletions left pending.
func randGraph(t *testing.T, rng *rand.Rand, n, deg int, pending bool) (*Matrix[float64], *Matrix[float64]) {
	var rows, cols []int
	for i := 0; i < n; i++ {
		for range rng.Intn(2*deg + 1) {
			rows, cols = append(rows, i), append(cols, rng.Intn(n))
		}
	}
	A, err := MatrixFromTuples(n, n, rows, cols, make([]float64, len(rows)), nil)
	if err != nil {
		t.Fatal(err)
	}
	AT := NewTranspose(A)
	if pending {
		for k := 0; k < 40; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if k%3 == 0 {
				A.RemoveElement(i, j)
				AT.RemoveElement(j, i)
			} else {
				A.SetElement(2, i, j)
				AT.SetElement(2, j, i)
			}
		}
	}
	return A, AT
}

// TestFusedPlusFirstStep: level by level, FusedFrontierStep leaves the
// frontier, path counts and depths its generic formulation leaves, push or
// pull, from batches with a repeated source, over sparse, bitmap and
// pending graphs and states with and without pending tuples; the backward
// phase built on it leaves the B that Algorithm 3's W, masked multiply and
// EWiseMults leave, bit for bit.
func TestFusedPlusFirstStep(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 24; trial++ {
		n := 20 + rng.Intn(300)
		pending := trial%2 == 1
		label := fmt.Sprintf("trial %d (n %d, pending %v)", trial, n, pending)
		A, AT := randGraph(t, rng, n, 1+trial%4, pending)
		if trial%4 == 2 {
			A.ConvertTo(FormatBitmap)
			AT.ConvertTo(FormatBitmap)
		}
		sources := make([]int, 1+rng.Intn(8))
		for k := range sources {
			sources[k] = rng.Intn(n)
		}
		sources = append(sources, sources[0])
		fused, generic := newBCTraversal(t, n, sources, pending), newBCTraversal(t, n, sources, pending)
		for d := int32(0); ; d++ {
			pull := rng.Intn(2) == 0
			nf, err := fused.fusedLevel(A, AT, pull)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			want, err := generic.genericLevel(A, AT, pull, d)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("%s, level %d, pull %v", label, d+1, pull)
			if nf != want {
				t.Fatalf("%s: frontier of %d, generic %d", what, nf, want)
			}
			matricesEqual(t, fused.F, denseOf(generic.F), what+": frontier")
			matricesEqual(t, fused.P, denseOf(generic.P), what+": P")
			matricesEqual(t, fused.D, denseOf(generic.D), what+": D")
			if nf == 0 {
				break
			}
		}
		B, err := fused.backward(A, AT, true)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want, err := generic.backward(A, AT, false)
		if err != nil {
			t.Fatal(err)
		}
		matricesEqual(t, B, denseOf(want), label+": B")
	}

	// Errors: a non-square A, a P of other dimensions, a B not full.
	s := newBCTraversal(t, 3, []int{0}, false)
	if _, err := FusedFrontierStep(MustMatrix[float64](1, 3), s.F, s.P, s.D, MustMatrix[float64](3, 4), MustMatrix[float64](4, 3), false); InfoOf(err) != DimensionMismatch {
		t.Fatalf("non-square A: %v", err)
	}
	A3 := MustMatrix[float64](3, 3)
	if _, err := FusedFrontierStep(MustMatrix[float64](1, 3), s.F, MustMatrix[float64](2, 3), s.D, A3, A3, false); InfoOf(err) != DimensionMismatch {
		t.Fatalf("P of two rows: %v", err)
	}
	if err := FusedPlusFirstBackStep(MustMatrix[float64](1, 3), s.F, s.P, s.D, A3); InfoOf(err) != InvalidObject {
		t.Fatalf("empty B: %v", err)
	}
}

// TestFusedPlusFirstStepWorkerCount: the pull step cuts by vertex and the
// backward step by frontier entry, and neither result depends on where the
// cuts fall: a traversal of 4 096 vertices whose middle levels hold
// thousands of entries, pulled at every other level, leaves the same
// frontiers, P, D and B, bit for bit, under one worker and under four.
func TestFusedPlusFirstStepWorkerCount(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	A, AT := randGraph(t, rng, 4096, 4, false)
	sources := []int{0, 1000, 2000, 3000, 1000}
	run := func(workers int) (*bcTraversal, *Matrix[float64]) {
		defer parallel.SetMaxThreads(parallel.SetMaxThreads(workers))
		s := newBCTraversal(t, 4096, sources, false)
		for d := int32(0); ; d++ {
			nf, err := s.fusedLevel(A, AT, d%2 == 1)
			if err != nil {
				t.Fatal(err)
			}
			if nf == 0 {
				break
			}
		}
		B, err := s.backward(A, AT, true)
		if err != nil {
			t.Fatal(err)
		}
		return s, B
	}
	one, B1 := run(1)
	four, B4 := run(4)
	widest := 0
	for _, c := range one.levels {
		widest = max(widest, c.nvalsUpper())
	}
	if widest < 4*1024 { // where parallel.Threads hands four workers the cut
		t.Fatalf("widest level holds %d entries: too few to cut", widest)
	}
	if len(one.levels) != len(four.levels) {
		t.Fatalf("%d levels under one worker, %d under four", len(one.levels), len(four.levels))
	}
	for d, c := range one.levels {
		if c4 := four.levels[d]; !slices.Equal(c.ptr, c4.ptr) || !slices.Equal(c.idx, c4.idx) || !slices.Equal(c.val, c4.val) {
			t.Fatalf("level %d differs between one worker and four", d+1)
		}
	}
	if !slices.Equal(one.P.val, four.P.val) || !slices.Equal(one.D.val, four.D.val) || !slices.Equal(one.P.b, four.P.b) {
		t.Fatal("P or D differs between one worker and four")
	}
	for p, x := range B1.val {
		if math.Float64bits(x) != math.Float64bits(B4.val[p]) {
			t.Fatalf("B cell %d: %v under one worker, %v under four", p, x, B4.val[p])
		}
	}
}
