package grb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// ---------------------------------------------------------------------------
// Table II: the semirings used in the paper

func TestTableIISemirings(t *testing.T) {
	// conventional: plus.times over UINT64, zero = 0
	conv := PlusTimes[uint64]()
	if conv.Add.Identity != 0 || conv.Mul.F(3, 4) != 12 {
		t.Fatal("conventional semiring")
	}
	// any.secondi: positional, result is the k index
	as := AnySecondI[bool, bool, int64]()
	if !as.Mul.Positional() || as.Mul.PosF(9, 5, 2) != 5 {
		t.Fatal("any.secondi must return the pair index k")
	}
	if !as.Add.IsAny {
		t.Fatal("any monoid flag")
	}
	// min.plus over FP64: identity +inf (the paper lists the zero as the
	// additive identity of min)
	mp := MinPlus[float64]()
	if !math.IsInf(mp.Add.Identity, 1) {
		t.Fatal("min.plus identity must be +inf")
	}
	if mp.Add.F(3, 5) != 3 || mp.Mul.F(3, 5) != 8 {
		t.Fatal("min.plus ops")
	}
	// plus.first / plus.second
	pf := PlusFirst[uint64, bool]()
	if pf.Mul.F(7, true) != 7 {
		t.Fatal("plus.first keeps left")
	}
	ps := PlusSecond[bool, uint64]()
	if ps.Mul.F(true, 9) != 9 {
		t.Fatal("plus.second keeps right")
	}
	// plus.pair
	pp := PlusPair[float64, float64, uint64]()
	if pp.Mul.F(3.5, -2) != 1 {
		t.Fatal("pair is constant 1")
	}
}

func TestMonoidLawsProperty(t *testing.T) {
	type lawCase struct {
		name string
		mon  Monoid[int64]
	}
	cases := []lawCase{
		{"plus", PlusMonoid[int64]()},
		{"min", MinMonoid[int64]()},
		{"max", MaxMonoid[int64]()},
		{"times", TimesMonoid[int64]()},
	}
	for _, c := range cases {
		mon := c.mon
		assoc := func(a, b, x int64) bool {
			return mon.F(mon.F(a, b), x) == mon.F(a, mon.F(b, x))
		}
		if err := quick.Check(assoc, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("%s associativity: %v", c.name, err)
		}
		ident := func(a int64) bool {
			return mon.F(a, mon.Identity) == a && mon.F(mon.Identity, a) == a
		}
		if err := quick.Check(ident, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("%s identity: %v", c.name, err)
		}
	}
}

func TestPositionalOperatorConventions(t *testing.T) {
	// For pair a(i,k)*b(k,j): secondi=k.
	if SecondIOp[bool, bool, int64]().PosF(3, 5, 7) != 5 {
		t.Fatal("secondi")
	}
	// A vector is a column: its entry i lies at (i, 0), whatever its
	// format, for apply, select and the element-wise operations.
	const n = 6
	at := BinaryOp[float64, float64, float64]{Name: "at", PosF: func(i, k, j int) float64 { return float64(100*i + 10*k + j) }}
	for _, f := range allFormats {
		u := vecInFormat(DenseVector(n, 1.0), f)
		if f == FormatSparse {
			u, _ = VectorFromTuples(n, []int{0, 2, 5}, []float64{1, 1, 1}, nil)
		}
		present := vdenseOf(u)
		w := MustVector[float64](n)
		if err := ApplyV(w, NoVMask, nil, RowIndexOp[float64, float64](), u, nil); err != nil {
			t.Fatal(err)
		}
		want := map[int]float64{}
		for i := range present {
			want[i] = float64(i)
		}
		vectorsEqual(t, w, want, "ApplyV rowindex on "+f.String())
		for _, c := range []struct {
			op   IndexUnaryOp[float64]
			keep func(i int) bool
		}{
			{Tril[float64](), func(i int) bool { return true }},
			{Triu[float64](), func(i int) bool { return i == 0 }},
			{Diag[float64](), func(i int) bool { return i == 0 }},
			{Offdiag[float64](), func(i int) bool { return i != 0 }},
		} {
			w := MustVector[float64](n)
			if err := SelectV(w, NoVMask, nil, c.op, u, 3, nil); err != nil {
				t.Fatal(err)
			}
			want := map[int]float64{}
			for i, x := range present {
				if c.keep(i) {
					want[i] = x
				}
			}
			vectorsEqual(t, w, want, "SelectV "+c.op.Name+" on "+f.String())
		}
		v := vecInFormat(DenseVector(n, 2.0), f)
		w = MustVector[float64](n)
		if err := EWiseMultV(w, NoVMask, nil, at, u, v, nil); err != nil {
			t.Fatal(err)
		}
		want = map[int]float64{}
		for i := range present {
			want[i] = float64(100 * i)
		}
		vectorsEqual(t, w, want, "EWiseMultV positional on "+f.String())
		w = MustVector[float64](n)
		if err := EWiseAddV(w, NoVMask, nil, at, u, u, nil); err != nil {
			t.Fatal(err)
		}
		vectorsEqual(t, w, want, "EWiseAddV positional on "+f.String())
	}
}

func TestMaxMinOfLimits(t *testing.T) {
	if MaxOf[int32]() != math.MaxInt32 || MinOf[int32]() != math.MinInt32 {
		t.Fatal("int32 limits")
	}
	if MaxOf[uint16]() != math.MaxUint16 || MinOf[uint16]() != 0 {
		t.Fatal("uint16 limits")
	}
	if !math.IsInf(float64(MaxOf[float32]()), 1) || !math.IsInf(float64(MinOf[float32]()), -1) {
		t.Fatal("float32 limits")
	}
}

// ---------------------------------------------------------------------------
// element-wise

func TestEWiseAddUnionSemantics(t *testing.T) {
	A := mustFromTuples(t, 2, 3, []int{0, 0}, []int{0, 1}, []float64{1, 2})
	B := mustFromTuples(t, 2, 3, []int{0, 1}, []int{1, 2}, []float64{10, 20})
	C := MustMatrix[float64](2, 3)
	if err := EWiseAdd(C, NoMask, nil, AddOp(PlusOp[float64]()), A, B, nil); err != nil {
		t.Fatal(err)
	}
	matricesEqual(t, C, map[coord]float64{
		{0, 0}: 1, {0, 1}: 12, {1, 2}: 20,
	}, "eWiseAdd union")
}

func TestEWiseMultIntersectionSemantics(t *testing.T) {
	A := mustFromTuples(t, 2, 3, []int{0, 0}, []int{0, 1}, []float64{3, 2})
	B := mustFromTuples(t, 2, 3, []int{0, 1}, []int{1, 2}, []float64{10, 20})
	C := MustMatrix[float64](2, 3)
	if err := EWiseMult(C, NoMask, nil, TimesOp[float64](), A, B, nil); err != nil {
		t.Fatal(err)
	}
	matricesEqual(t, C, map[coord]float64{{0, 1}: 20}, "eWiseMult intersection")
}

func TestEWiseVectorUnionIntersection(t *testing.T) {
	u, _ := VectorFromTuples(5, []int{0, 2}, []float64{1, 2}, nil)
	v, _ := VectorFromTuples(5, []int{2, 4}, []float64{10, 20}, nil)
	w := MustVector[float64](5)
	if err := EWiseAddV(w, NoVMask, nil, MinOp[float64](), u, v, nil); err != nil {
		t.Fatal(err)
	}
	vectorsEqual(t, w, map[int]float64{0: 1, 2: 2, 4: 20}, "vector union min")

	w2 := MustVector[float64](5)
	if err := EWiseMultV(w2, NoVMask, nil, TimesOp[float64](), u, v, nil); err != nil {
		t.Fatal(err)
	}
	vectorsEqual(t, w2, map[int]float64{2: 20}, "vector intersection")
}

func TestEWiseAddEquivalentToUnionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(15)
		A := randMatrix(rng, n, n, 0.3)
		B := randMatrix(rng, n, n, 0.3)
		C := MustMatrix[float64](n, n)
		if err := EWiseAdd(C, NoMask, nil, AddOp(PlusOp[float64]()), A, B, nil); err != nil {
			return false
		}
		a, b, g := denseOf(A), denseOf(B), denseOf(C)
		want := map[coord]float64{}
		for p, x := range a {
			want[p] = x
		}
		for p, x := range b {
			want[p] += x
		}
		if len(want) != len(g) {
			return false
		}
		for p, x := range want {
			if g[p] != x {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// ---------------------------------------------------------------------------
// apply / select

func TestApplyUnary(t *testing.T) {
	A := mustFromTuples(t, 2, 2, []int{0, 1}, []int{1, 0}, []float64{-3, 4})
	C := MustMatrix[float64](2, 2)
	if err := Apply(C, NoMask, nil, AbsOp[float64](), A, nil); err != nil {
		t.Fatal(err)
	}
	matricesEqual(t, C, map[coord]float64{{0, 1}: 3, {1, 0}: 4}, "abs")
}

func TestApplyTypeConversion(t *testing.T) {
	A := mustFromTuples(t, 2, 2, []int{0, 1}, []int{1, 0}, []float64{-3, 4})
	P := MustMatrix[bool](2, 2)
	one := UnaryOp[float64, bool]{Name: "true", F: func(float64) bool { return true }}
	if err := Apply(P, NoMask, nil, one, A, nil); err != nil {
		t.Fatal(err)
	}
	g := denseOf(P)
	if len(g) != 2 || !g[coord{0, 1}] || !g[coord{1, 0}] {
		t.Fatalf("pattern = %v", g)
	}
}

func TestSelectTrilTriu(t *testing.T) {
	rows := []int{0, 0, 1, 1, 2}
	cols := []int{0, 2, 0, 1, 1}
	vals := []int64{1, 2, 3, 4, 5}
	A := mustFromTuples(t, 3, 3, rows, cols, vals)
	L := MustMatrix[int64](3, 3)
	if err := Select(L, NoMask, nil, Tril[int64](), A, 0, nil); err != nil {
		t.Fatal(err)
	}
	matricesEqual(t, L, map[coord]int64{{0, 0}: 1, {1, 0}: 3, {1, 1}: 4, {2, 1}: 5}, "tril")
	U := MustMatrix[int64](3, 3)
	if err := Select(U, NoMask, nil, Triu[int64](), A, 0, nil); err != nil {
		t.Fatal(err)
	}
	matricesEqual(t, U, map[coord]int64{{0, 0}: 1, {0, 2}: 2, {1, 1}: 4}, "triu")
}

func TestSelectValueThreshold(t *testing.T) {
	A := mustFromTuples(t, 1, 5, []int{0, 0, 0, 0, 0}, []int{0, 1, 2, 3, 4}, []float64{1, 5, 2, 8, 3})
	C := MustMatrix[float64](1, 5)
	if err := Select(C, NoMask, nil, ValueGT[float64](), A, 2.5, nil); err != nil {
		t.Fatal(err)
	}
	matricesEqual(t, C, map[coord]float64{{0, 1}: 5, {0, 3}: 8, {0, 4}: 3}, "value > 2.5")
}

func TestSelectVector(t *testing.T) {
	u, _ := VectorFromTuples(5, []int{0, 1, 3}, []float64{4, 1, 9}, nil)
	w := MustVector[float64](5)
	if err := SelectV(w, NoVMask, nil, ValueGE[float64](), u, 4, nil); err != nil {
		t.Fatal(err)
	}
	vectorsEqual(t, w, map[int]float64{0: 4, 3: 9}, "selectv")
}

func TestApplyVectorWithMask(t *testing.T) {
	u, _ := VectorFromTuples(4, []int{0, 1, 2}, []float64{1, 2, 3}, nil)
	m, _ := VectorFromTuples(4, []int{1, 2}, []bool{true, true}, nil)
	w := MustVector[float64](4)
	if err := ApplyV(w, StructVMaskOf(m), nil, AInvOp[float64](), u, nil); err != nil {
		t.Fatal(err)
	}
	vectorsEqual(t, w, map[int]float64{1: -2, 2: -3}, "masked applyv")
}

// ---------------------------------------------------------------------------
// reduce

func TestReduceMatrixToVectorRowWise(t *testing.T) {
	A := mustFromTuples(t, 3, 3,
		[]int{0, 0, 2}, []int{0, 2, 1}, []float64{1, 2, 5})
	w := MustVector[float64](3)
	if err := ReduceMatrixToVector(w, NoVMask, nil, PlusMonoid[float64](), A, nil); err != nil {
		t.Fatal(err)
	}
	vectorsEqual(t, w, map[int]float64{0: 3, 2: 5}, "row-wise reduce")
}

func TestReduceColumnWiseViaTranspose(t *testing.T) {
	A := mustFromTuples(t, 3, 3,
		[]int{0, 1, 2}, []int{1, 1, 0}, []float64{1, 2, 4})
	w := MustVector[float64](3)
	if err := ReduceMatrixToVector(w, NoVMask, nil, PlusMonoid[float64](), A, DescT0); err != nil {
		t.Fatal(err)
	}
	vectorsEqual(t, w, map[int]float64{0: 4, 1: 3}, "col-wise reduce")
}

func TestReduceToScalar(t *testing.T) {
	A := mustFromTuples(t, 3, 3, []int{0, 1, 2}, []int{1, 2, 0}, []int64{7, -2, 5})
	if got := ReduceMatrixToScalar(PlusMonoid[int64](), A); got != 10 {
		t.Fatalf("matrix reduce = %d", got)
	}
	if got := ReduceMatrixToScalar(MinMonoid[int64](), A); got != -2 {
		t.Fatalf("matrix min = %d", got)
	}
	empty := MustMatrix[int64](2, 2)
	if got := ReduceMatrixToScalar(PlusMonoid[int64](), empty); got != 0 {
		t.Fatalf("empty reduce = %d, want identity", got)
	}
	u, _ := VectorFromTuples(4, []int{0, 3}, []int64{4, 6}, nil)
	if got := ReduceVectorToScalar(PlusMonoid[int64](), u); got != 10 {
		t.Fatalf("vector reduce = %d", got)
	}
	if got := ReduceVectorToScalar(MaxMonoid[int64](), u); got != 6 {
		t.Fatalf("vector max = %d", got)
	}
}

func TestReduceParallelMatchesSequentialProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		vals := make([]float64, n)
		idx := make([]int, n)
		for i := range vals {
			vals[i] = float64(rng.Intn(100))
			idx[i] = i
		}
		u, err := VectorFromTuples(n, idx, vals, nil)
		if err != nil {
			return false
		}
		got := ReduceVectorToScalar(PlusMonoid[float64](), u)
		want := 0.0
		for _, x := range vals {
			want += x
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestReduceMatrixToVectorMasked(t *testing.T) {
	A := mustFromTuples(t, 4, 4,
		[]int{0, 1, 2, 3}, []int{1, 2, 3, 0}, []float64{1, 2, 3, 4})
	m, _ := VectorFromTuples(4, []int{0, 2}, []bool{true, true}, nil)
	w := MustVector[float64](4)
	if err := ReduceMatrixToVector(w, StructVMaskOf(m), nil, PlusMonoid[float64](), A, nil); err != nil {
		t.Fatal(err)
	}
	vectorsEqual(t, w, map[int]float64{0: 1, 2: 3}, "masked row reduce")
	// Complemented.
	w2 := MustVector[float64](4)
	if err := ReduceMatrixToVector(w2, StructVMaskOf(m).Not(), nil, PlusMonoid[float64](), A, nil); err != nil {
		t.Fatal(err)
	}
	vectorsEqual(t, w2, map[int]float64{1: 2, 3: 4}, "complement masked reduce")
}

func TestDotKernelTerminalEarlyExit(t *testing.T) {
	// The min monoid's terminal is -inf: a dot product that reaches it
	// must still produce the correct value (early exit is an internal
	// optimisation only).
	A := mustFromTuples(t, 2, 3, []int{0, 0, 0}, []int{0, 1, 2}, []float64{1, math.Inf(-1), 3})
	B := mustFromTuples(t, 2, 3, []int{0, 0, 0}, []int{0, 1, 2}, []float64{2, 2, 2})
	C := MustMatrix[float64](2, 2)
	minPlus := MinPlus[float64]()
	if err := MxM(C, NoMask, nil, minPlus, A, B, DescT1); err != nil {
		t.Fatal(err)
	}
	// C(0,0) = min(1+2, -inf+2, 3+2) = -inf; terminal hit mid-reduction.
	x, err := C.ExtractElement(0, 0)
	if err != nil || !math.IsInf(x, -1) {
		t.Fatalf("C(0,0) = %v, %v", x, err)
	}
}

func TestApplyWithAccumAndReplace(t *testing.T) {
	A := mustFromTuples(t, 2, 2, []int{0, 1}, []int{0, 1}, []float64{2, 3})
	C := mustFromTuples(t, 2, 2, []int{0, 0}, []int{0, 1}, []float64{10, 20})
	plus := func(a, b float64) float64 { return a + b }
	if err := Apply(C, NoMask, plus, AbsOp[float64](), A, nil); err != nil {
		t.Fatal(err)
	}
	// t = {(0,0):2, (1,1):3}; C(0,0)=12, C(0,1)=20 kept, C(1,1)=3.
	matricesEqual(t, C, map[coord]float64{{0, 0}: 12, {0, 1}: 20, {1, 1}: 3}, "apply accum")
}

// ---------------------------------------------------------------------------
// transpose

func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nr, nc := 1+rng.Intn(15), 1+rng.Intn(15)
		A := randMatrix(rng, nr, nc, 0.3)
		ATT := NewTranspose(NewTranspose(A))
		a, att := denseOf(A), denseOf(ATT)
		if len(a) != len(att) {
			return false
		}
		for p, x := range a {
			if att[p] != x {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeSwapsCoordinates(t *testing.T) {
	A := mustFromTuples(t, 2, 3, []int{0, 1}, []int{2, 0}, []int64{5, 7})
	T := MustMatrix[int64](3, 2)
	if err := Transpose(T, NoMask, nil, A, nil); err != nil {
		t.Fatal(err)
	}
	matricesEqual(t, T, map[coord]int64{{2, 0}: 5, {0, 1}: 7}, "transpose")
}

// ---------------------------------------------------------------------------
// extract / assign

func TestExtractSubmatrixInducedSubgraph(t *testing.T) {
	A := mustFromTuples(t, 4, 4,
		[]int{0, 1, 2, 3, 1}, []int{1, 2, 3, 0, 0}, []int64{1, 2, 3, 4, 5})
	C := MustMatrix[int64](2, 2)
	if err := ExtractSubmatrix(C, NoMask, nil, A, []int{1, 2}, []int{2, 3}, nil); err != nil {
		t.Fatal(err)
	}
	matricesEqual(t, C, map[coord]int64{{0, 0}: 2, {1, 1}: 3}, "induced subgraph")
}

func TestExtractPermutationRelabelsGraph(t *testing.T) {
	A := mustFromTuples(t, 3, 3, []int{0, 1}, []int{1, 2}, []int64{1, 2})
	p := []int{2, 0, 1} // new index k takes old index p[k]
	C := MustMatrix[int64](3, 3)
	if err := ExtractSubmatrix(C, NoMask, nil, A, p, p, nil); err != nil {
		t.Fatal(err)
	}
	// Old edge (0,1) -> new (1,2); old (1,2) -> new (2,0).
	matricesEqual(t, C, map[coord]int64{{1, 2}: 1, {2, 0}: 2}, "permutation")
}

func TestExtractColumnAndSubvector(t *testing.T) {
	A := mustFromTuples(t, 3, 3, []int{0, 1, 2}, []int{1, 1, 2}, []int64{5, 6, 7})
	w := MustVector[int64](3)
	if err := ExtractColumn(w, NoVMask, nil, A, All, 1, nil); err != nil {
		t.Fatal(err)
	}
	vectorsEqual(t, w, map[int]int64{0: 5, 1: 6}, "extract column")

	u, _ := VectorFromTuples(5, []int{0, 2, 4}, []int64{10, 20, 30}, nil)
	s := MustVector[int64](4)
	if err := ExtractSubvector(s, NoVMask, nil, u, []int{4, 4, 0, 1}, nil); err != nil {
		t.Fatal(err)
	}
	vectorsEqual(t, s, map[int]int64{0: 30, 1: 30, 2: 10}, "gather with duplicates")
}

func TestAssignVectorScalarAll(t *testing.T) {
	w := MustVector[float64](4)
	if err := AssignVectorScalar(w, NoVMask, nil, 2.5, All, nil); err != nil {
		t.Fatal(err)
	}
	if w.Format() != FormatFull || w.NVals() != 4 {
		t.Fatalf("w(:)=s should be full: %v %d", w.Format(), w.NVals())
	}
	x, _ := w.ExtractElement(3)
	if x != 2.5 {
		t.Fatalf("value %v", x)
	}
}

func TestAssignVectorScalarMasked(t *testing.T) {
	w, _ := VectorFromTuples(4, []int{0, 1}, []float64{1, 2}, nil)
	m, _ := VectorFromTuples(4, []int{1, 3}, []bool{true, true}, nil)
	if err := AssignVectorScalar(w, StructVMaskOf(m), nil, 9, All, nil); err != nil {
		t.Fatal(err)
	}
	vectorsEqual(t, w, map[int]float64{0: 1, 1: 9, 3: 9}, "masked scalar assign")
}

func TestAssignVectorScatterWithAccumAndDuplicates(t *testing.T) {
	// FastSV-style: f(x) min= u with duplicate targets.
	f := DenseVector(4, int64(10))
	u, _ := VectorFromTuples(3, []int{0, 1, 2}, []int64{7, 3, 5}, nil)
	x := []int{2, 2, 0} // positions 2 (twice) and 0
	minAcc := func(a, b int64) int64 {
		if b < a {
			return b
		}
		return a
	}
	if err := AssignVector(f, NoVMask, minAcc, u, x, nil); err != nil {
		t.Fatal(err)
	}
	vectorsEqual(t, f, map[int]int64{0: 5, 1: 10, 2: 3, 3: 10}, "scatter min accum")

	// A non-associative accumulator: u(0) and u(1) both land on w(1) and
	// fold in index order after w's own entry, (10 − 3) − 2, whatever w's
	// format, with or without a mask; without an accumulator the later
	// wins.
	u2, _ := VectorFromTuples(2, []int{0, 1}, []int64{3, 2}, nil)
	m, _ := VectorFromTuples(4, []int{1, 3}, []bool{true, true}, nil)
	for _, c := range []struct {
		accum func(a, b int64) int64
		want  int64
	}{{func(a, b int64) int64 { return a - b }, 5}, {nil, 2}} {
		for _, format := range allFormats {
			for _, mask := range []VMask{NoVMask, VMaskOf(m)} {
				w := vecInFormat(DenseVector(4, int64(10)), format)
				if err := AssignVector(w, mask, c.accum, u2, []int{1, 1}, nil); err != nil {
					t.Fatal(err)
				}
				vectorsEqual(t, w, map[int]int64{0: 10, 1: c.want, 2: 10, 3: 10},
					fmt.Sprintf("scatter into %v w, masked %v, accumulated %v", format, mask.Exists(), c.accum != nil))
			}
		}
	}
}

func TestAssignVectorMaskedIdentityFastPath(t *testing.T) {
	// p⟨s(q)⟩ = q — the BFS parent update.
	p, _ := VectorFromTuples(5, []int{0}, []int64{0}, nil)
	q, _ := VectorFromTuples(5, []int{1, 3}, []int64{0, 0}, nil)
	if err := AssignVector(p, StructVMaskOf(q), nil, q, All, nil); err != nil {
		t.Fatal(err)
	}
	vectorsEqual(t, p, map[int]int64{0: 0, 1: 0, 3: 0}, "p<s(q)> = q")
}

func TestAssignVectorReplaceDeletesOutsideMask(t *testing.T) {
	w, _ := VectorFromTuples(4, []int{0, 1, 2}, []int64{1, 2, 3}, nil)
	m, _ := VectorFromTuples(4, []int{1}, []bool{true}, nil)
	u, _ := VectorFromTuples(4, []int{1}, []int64{99}, nil)
	if err := AssignVector(w, StructVMaskOf(m), nil, u, All, DescR); err != nil {
		t.Fatal(err)
	}
	vectorsEqual(t, w, map[int]int64{1: 99}, "replace deletes outside mask")
}

func TestAssignMatrixScalarRegion(t *testing.T) {
	C := mustFromTuples(t, 3, 3, []int{0, 2}, []int{0, 2}, []int64{1, 9})
	if err := AssignMatrixScalar(C, NoMask, nil, 5, []int{0, 1}, []int{1, 2}, nil); err != nil {
		t.Fatal(err)
	}
	matricesEqual(t, C, map[coord]int64{
		{0, 0}: 1, {0, 1}: 5, {0, 2}: 5, {1, 1}: 5, {1, 2}: 5, {2, 2}: 9,
	}, "region scalar assign")
}

func TestAssignMatrixScalarAllMakesFull(t *testing.T) {
	C := MustMatrix[float64](2, 3)
	if err := AssignMatrixScalar(C, NoMask, nil, 1.0, All, All, nil); err != nil {
		t.Fatal(err)
	}
	if C.Format() != FormatFull || C.NVals() != 6 {
		t.Fatalf("C(:)=s: %v %d", C.Format(), C.NVals())
	}
}

func TestAccumulatorOnVectorOps(t *testing.T) {
	w, _ := VectorFromTuples(3, []int{0}, []float64{10}, nil)
	u, _ := VectorFromTuples(3, []int{0, 1}, []float64{1, 2}, nil)
	v, _ := VectorFromTuples(3, []int{0, 1}, []float64{3, 4}, nil)
	plus := func(a, b float64) float64 { return a + b }
	if err := EWiseMultV(w, NoVMask, plus, TimesOp[float64](), u, v, nil); err != nil {
		t.Fatal(err)
	}
	// t = {0:3, 1:8}; w(0) = 10+3, w(1) = 8.
	vectorsEqual(t, w, map[int]float64{0: 13, 1: 8}, "vector accum")
}

// TestResultOutlivesItsWriteBack pins that a vector result built as a list
// does not point into the call's write-back, which the next call reuses.
func TestResultOutlivesItsWriteBack(t *testing.T) {
	u, _ := VectorFromTuples(64, []int{1, 5}, []float64{1, 5}, nil)
	v, _ := VectorFromTuples(64, []int{2}, []float64{2}, nil)
	w := MustVector[float64](64)
	if err := ApplyV(w, NoVMask, nil, Identity[float64](), u, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := ApplyV(MustVector[float64](64), NoVMask, nil, Identity[float64](), v, nil); err != nil {
			t.Fatal(err)
		}
	}
	if x, err := w.ExtractElement(5); err != nil || x != 5 {
		t.Fatalf("w(5) = %v, %v after later calls", x, err)
	}
}
