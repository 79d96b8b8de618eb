package grb

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// ---------------------------------------------------------------------------
// naive references

type coord struct{ i, j int }

// denseOf converts a matrix to a map for naive computations.
func denseOf[T Value](m *Matrix[T]) map[coord]T {
	out := map[coord]T{}
	r, c, v := m.ExtractTuples()
	for k := range r {
		out[coord{r[k], c[k]}] = v[k]
	}
	return out
}

func vdenseOf[T Value](v *Vector[T]) map[int]T {
	out := map[int]T{}
	idx, vals := v.ExtractTuples()
	for k := range idx {
		out[idx[k]] = vals[k]
	}
	return out
}

// naiveMxM computes A*B on (plus, times) over float64 with a naive loop.
func naiveMxM(A, B *Matrix[float64]) map[coord]float64 {
	a := denseOf(A)
	b := denseOf(B)
	out := map[coord]float64{}
	seen := map[coord]bool{}
	for pa, av := range a {
		for pb, bv := range b {
			if pa.j != pb.i {
				continue
			}
			p := coord{pa.i, pb.j}
			if seen[p] {
				out[p] += av * bv
			} else {
				out[p] = av * bv
				seen[p] = true
			}
		}
	}
	return out
}

func randMatrix(rng *rand.Rand, nr, nc int, density float64) *Matrix[float64] {
	var rows, cols []int
	var vals []float64
	for i := 0; i < nr; i++ {
		for j := 0; j < nc; j++ {
			if rng.Float64() < density {
				rows = append(rows, i)
				cols = append(cols, j)
				vals = append(vals, float64(1+rng.Intn(9)))
			}
		}
	}
	m, err := MatrixFromTuples(nr, nc, rows, cols, vals, nil)
	if err != nil {
		panic(err)
	}
	return m
}

func randVector(rng *rand.Rand, n int, density float64) *Vector[float64] {
	var idx []int
	var vals []float64
	for i := 0; i < n; i++ {
		if rng.Float64() < density {
			idx = append(idx, i)
			vals = append(vals, float64(1+rng.Intn(9)))
		}
	}
	v, err := VectorFromTuples(n, idx, vals, nil)
	if err != nil {
		panic(err)
	}
	return v
}

func matricesEqual[T Value](t *testing.T, got *Matrix[T], want map[coord]T, label string) {
	t.Helper()
	g := denseOf(got)
	if len(g) != len(want) || got.NVals() != len(want) {
		t.Fatalf("%s: nvals got %d (NVals %d) want %d\n got %v\nwant %v", label, len(g), got.NVals(), len(want), g, want)
	}
	for p, x := range want {
		if g[p] != x {
			t.Fatalf("%s: at %v got %v want %v", label, p, g[p], x)
		}
	}
}

func vectorsEqual[T Value](t *testing.T, got *Vector[T], want map[int]T, label string) {
	t.Helper()
	g := vdenseOf(got)
	if len(g) != len(want) || got.NVals() != len(want) {
		t.Fatalf("%s: nvals got %d (NVals %d) want %d\n got %v\nwant %v", label, len(g), got.NVals(), len(want), g, want)
	}
	for i, x := range want {
		if g[i] != x {
			t.Fatalf("%s: at %d got %v want %v", label, i, g[i], x)
		}
	}
}

// ---------------------------------------------------------------------------
// MxM

func TestMxMAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		nr, ni, nc := 1+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(12)
		A := randMatrix(rng, nr, ni, 0.3)
		B := randMatrix(rng, ni, nc, 0.3)
		C := MustMatrix[float64](nr, nc)
		if err := MxM(C, NoMask, nil, PlusTimes[float64](), A, B, nil); err != nil {
			t.Fatal(err)
		}
		matricesEqual(t, C, naiveMxM(A, B), "plain mxm")
	}
}

func TestMxMTransposeDescriptors(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(10)
		A := randMatrix(rng, n, n, 0.3)
		B := randMatrix(rng, n, n, 0.3)
		BT := NewTranspose(B)
		AT := NewTranspose(A)

		// C1 = A * B^T via descriptor; C2 = A * (explicit B^T).
		C1 := MustMatrix[float64](n, n)
		C2 := MustMatrix[float64](n, n)
		if err := MxM(C1, NoMask, nil, PlusTimes[float64](), A, B, DescT1); err != nil {
			t.Fatal(err)
		}
		if err := MxM(C2, NoMask, nil, PlusTimes[float64](), A, BT, nil); err != nil {
			t.Fatal(err)
		}
		matricesEqual(t, C1, denseOf(C2), "TranB dot kernel")

		// C3 = A^T * B via descriptor.
		C3 := MustMatrix[float64](n, n)
		C4 := MustMatrix[float64](n, n)
		if err := MxM(C3, NoMask, nil, PlusTimes[float64](), A, B, DescT0); err != nil {
			t.Fatal(err)
		}
		if err := MxM(C4, NoMask, nil, PlusTimes[float64](), AT, B, nil); err != nil {
			t.Fatal(err)
		}
		matricesEqual(t, C3, denseOf(C4), "TranA")
	}
}

func TestMxMStructuralMaskRestrictsOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 10
	A := randMatrix(rng, n, n, 0.4)
	B := randMatrix(rng, n, n, 0.4)
	M := randMatrix(rng, n, n, 0.3)
	want := naiveMxM(A, B)
	mset := denseOf(M)
	for p := range want {
		if _, ok := mset[p]; !ok {
			delete(want, p)
		}
	}
	C := MustMatrix[float64](n, n)
	if err := MxM(C, StructMaskOf(M), nil, PlusTimes[float64](), A, B, nil); err != nil {
		t.Fatal(err)
	}
	matricesEqual(t, C, want, "structural mask")
}

func TestMxMComplementedMask(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 10
	A := randMatrix(rng, n, n, 0.4)
	B := randMatrix(rng, n, n, 0.4)
	M := randMatrix(rng, n, n, 0.3)
	want := naiveMxM(A, B)
	mset := denseOf(M)
	for p := range want {
		if _, ok := mset[p]; ok {
			delete(want, p)
		}
	}
	C := MustMatrix[float64](n, n)
	if err := MxM(C, StructMaskOf(M).Not(), nil, PlusTimes[float64](), A, B, nil); err != nil {
		t.Fatal(err)
	}
	matricesEqual(t, C, want, "complemented structural mask")
}

func TestMxMValuedMaskIgnoresExplicitZeros(t *testing.T) {
	n := 4
	A := mustFromTuples(t, n, n, []int{0, 1, 2, 3}, []int{0, 1, 2, 3}, []float64{1, 1, 1, 1})
	// Mask with an explicit zero at (1,1) and a value at (2,2).
	M := mustFromTuples(t, n, n, []int{1, 2}, []int{1, 2}, []float64{0, 5})
	C := MustMatrix[float64](n, n)
	if err := MxM(C, MaskOf(M), nil, PlusTimes[float64](), A, A, nil); err != nil {
		t.Fatal(err)
	}
	want := map[coord]float64{{2, 2}: 1}
	matricesEqual(t, C, want, "valued mask drops explicit zero")

	// Structural mask keeps the explicit zero position.
	C2 := MustMatrix[float64](n, n)
	if err := MxM(C2, StructMaskOf(M), nil, PlusTimes[float64](), A, A, nil); err != nil {
		t.Fatal(err)
	}
	want2 := map[coord]float64{{1, 1}: 1, {2, 2}: 1}
	matricesEqual(t, C2, want2, "structural mask keeps explicit zero")
}

func TestMxMMergeVsReplaceSemantics(t *testing.T) {
	n := 3
	A := mustFromTuples(t, n, n, []int{0}, []int{0}, []float64{2})
	// C starts with entries inside and outside the mask.
	newC := func() *Matrix[float64] {
		return mustFromTuples(t, n, n,
			[]int{0, 2}, []int{0, 2}, []float64{100, 200})
	}
	M := mustFromTuples(t, n, n, []int{0, 1}, []int{0, 1}, []float64{1, 1})

	// Merge: (2,2) survives outside the mask.
	C := newC()
	if err := MxM(C, MaskOf(M), nil, PlusTimes[float64](), A, A, nil); err != nil {
		t.Fatal(err)
	}
	matricesEqual(t, C, map[coord]float64{{0, 0}: 4, {2, 2}: 200}, "merge keeps outside")

	// Replace: (2,2) is annihilated.
	C = newC()
	if err := MxM(C, MaskOf(M), nil, PlusTimes[float64](), A, A, DescR); err != nil {
		t.Fatal(err)
	}
	matricesEqual(t, C, map[coord]float64{{0, 0}: 4}, "replace annihilates outside")
}

func TestMxMAccumulator(t *testing.T) {
	n := 3
	A := mustFromTuples(t, n, n, []int{0}, []int{1}, []float64{3})
	B := mustFromTuples(t, n, n, []int{1}, []int{2}, []float64{4})
	C := mustFromTuples(t, n, n, []int{0, 1}, []int{2, 0}, []float64{10, 7})
	plus := func(a, b float64) float64 { return a + b }
	if err := MxM(C, NoMask, plus, PlusTimes[float64](), A, B, nil); err != nil {
		t.Fatal(err)
	}
	// t = {(0,2):12}; C(0,2) accumulates 10+12, C(1,0) kept.
	matricesEqual(t, C, map[coord]float64{{0, 2}: 22, {1, 0}: 7}, "accumulate")
}

// ---------------------------------------------------------------------------
// VxM / MxV

func TestVxMMatchesMxVOnTranspose(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		A := randMatrix(rng, n, n, 0.3)
		u := randVector(rng, n, 0.4)
		AT := NewTranspose(A)

		w1 := MustVector[float64](n)
		if err := VxM(w1, NoVMask, nil, PlusTimes[float64](), u, A, nil); err != nil {
			return false
		}
		w2 := MustVector[float64](n)
		if err := MxV(w2, NoVMask, nil, PlusTimes[float64](), AT, u, nil); err != nil {
			return false
		}
		g1, g2 := vdenseOf(w1), vdenseOf(w2)
		if len(g1) != len(g2) {
			return false
		}
		for i, x := range g1 {
			if g2[i] != x {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestVxMNaive(t *testing.T) {
	// w = u^T A on (plus, times): w(j) = sum_k u(k) A(k,j).
	A := mustFromTuples(t, 3, 3,
		[]int{0, 0, 1, 2}, []int{1, 2, 2, 0}, []float64{1, 2, 3, 4})
	u, _ := VectorFromTuples(3, []int{0, 1}, []float64{10, 20}, nil)
	w := MustVector[float64](3)
	if err := VxM(w, NoVMask, nil, PlusTimes[float64](), u, A, nil); err != nil {
		t.Fatal(err)
	}
	vectorsEqual(t, w, map[int]float64{1: 10, 2: 80}, "vxm")
}

func TestMxVNaive(t *testing.T) {
	// w = A u: w(i) = sum_k A(i,k) u(k).
	A := mustFromTuples(t, 3, 3,
		[]int{0, 0, 1, 2}, []int{1, 2, 2, 0}, []float64{1, 2, 3, 4})
	u, _ := VectorFromTuples(3, []int{0, 2}, []float64{10, 5}, nil)
	w := MustVector[float64](3)
	if err := MxV(w, NoVMask, nil, PlusTimes[float64](), A, u, nil); err != nil {
		t.Fatal(err)
	}
	vectorsEqual(t, w, map[int]float64{0: 10, 1: 15, 2: 40}, "mxv")
}

func TestMxVTransposeDescriptorEqualsVxM(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 12
	A := randMatrix(rng, n, n, 0.3)
	u := randVector(rng, n, 0.4)
	w1 := MustVector[float64](n)
	if err := MxV(w1, NoVMask, nil, PlusTimes[float64](), A, u, DescT0); err != nil {
		t.Fatal(err)
	}
	w2 := MustVector[float64](n)
	if err := VxM(w2, NoVMask, nil, PlusTimes[float64](), u, A, nil); err != nil {
		t.Fatal(err)
	}
	vectorsEqual(t, w1, vdenseOf(w2), "mxv T0 == vxm")
}

func TestVxMComplementedStructuralMaskWithReplace(t *testing.T) {
	// The BFS step: q'⟨¬s(p), r⟩ = q^T A.
	A := mustFromTuples(t, 4, 4,
		[]int{0, 0, 1, 2}, []int{1, 2, 3, 3}, []float64{1, 1, 1, 1})
	q, _ := VectorFromTuples(4, []int{0}, []float64{1}, nil)
	p, _ := VectorFromTuples(4, []int{0, 2}, []float64{1, 1}, nil)
	w := q.Dup()
	if err := VxM(w, StructVMaskOf(p).Not(), nil, PlusTimes[float64](), q, A, DescR); err != nil {
		t.Fatal(err)
	}
	// q^T A = {1:1, 2:1}; mask removes 2 (visited); replace drops w's old 0.
	vectorsEqual(t, w, map[int]float64{1: 1}, "bfs-style step")
}

func TestAnySecondISemiringGivesParents(t *testing.T) {
	// Path graph 0->1->2: frontier at 0, parents should name vertex ids.
	A := mustFromTuples(t, 3, 3, []int{0, 1}, []int{1, 2}, []bool{true, true})
	q, _ := VectorFromTuples(3, []int{0}, []int64{0}, nil)
	w := MustVector[int64](3)
	if err := VxM(w, NoVMask, nil, AnySecondI[int64, bool, int64](), q, A, nil); err != nil {
		t.Fatal(err)
	}
	vectorsEqual(t, w, map[int]int64{1: 0}, "parent of 1 is 0")

	// Pull direction must give the same parent.
	AT := NewTranspose(A)
	w2 := MustVector[int64](3)
	if err := MxV(w2, NoVMask, nil, AnySecondI[bool, int64, int64](), AT, q, nil); err != nil {
		t.Fatal(err)
	}
	vectorsEqual(t, w2, map[int]int64{1: 0}, "pull parent of 1 is 0")
}

func TestAnySecondIPushPullAgreeOnValidity(t *testing.T) {
	// On a graph where node 3 has two frontier parents {0, 1}, any of them
	// is valid; push and pull must both return one of them.
	A := mustFromTuples(t, 4, 4, []int{0, 1}, []int{3, 3}, []bool{true, true})
	AT := NewTranspose(A)
	q, _ := VectorFromTuples(4, []int{0, 1}, []int64{0, 1}, nil)

	w := MustVector[int64](4)
	if err := VxM(w, NoVMask, nil, AnySecondI[int64, bool, int64](), q, A, nil); err != nil {
		t.Fatal(err)
	}
	x, err := w.ExtractElement(3)
	if err != nil || (x != 0 && x != 1) {
		t.Fatalf("push parent = %v, %v", x, err)
	}
	w2 := MustVector[int64](4)
	if err := MxV(w2, NoVMask, nil, AnySecondI[bool, int64, int64](), AT, q, nil); err != nil {
		t.Fatal(err)
	}
	x2, err := w2.ExtractElement(3)
	if err != nil || (x2 != 0 && x2 != 1) {
		t.Fatalf("pull parent = %v, %v", x2, err)
	}
}

func TestMinPlusSemiring(t *testing.T) {
	// Relaxation: dist' = dist min.+ A.
	A := mustFromTuples(t, 3, 3,
		[]int{0, 0, 1}, []int{1, 2, 2}, []float64{5, 12, 3})
	d, _ := VectorFromTuples(3, []int{0}, []float64{0}, nil)
	w := MustVector[float64](3)
	if err := VxM(w, NoVMask, nil, MinPlus[float64](), d, A, nil); err != nil {
		t.Fatal(err)
	}
	vectorsEqual(t, w, map[int]float64{1: 5, 2: 12}, "one relaxation")
	// Two-step: through 1 is shorter to 2 (5+3=8 < 12).
	if err := EWiseAddV(w, NoVMask, nil, MinOp[float64](), w, d, nil); err != nil {
		t.Fatal(err)
	}
	w2 := MustVector[float64](3)
	if err := VxM(w2, NoVMask, nil, MinPlus[float64](), w, A, nil); err != nil {
		t.Fatal(err)
	}
	vectorsEqual(t, w2, map[int]float64{1: 5, 2: 8}, "second relaxation")
}

func TestPlusPairCountsIntersections(t *testing.T) {
	// Triangle 0-1-2 (undirected). L plus.pair U^T over the L mask counts
	// the wedges closing each edge.
	rows := []int{0, 1, 1, 2, 2, 0}
	cols := []int{1, 0, 2, 1, 0, 2}
	vals := []bool{true, true, true, true, true, true}
	A := mustFromTuples(t, 3, 3, rows, cols, vals)
	L := MustMatrix[bool](3, 3)
	if err := Select(L, NoMask, nil, Tril[bool](), A, false, nil); err != nil {
		t.Fatal(err)
	}
	U := MustMatrix[bool](3, 3)
	if err := Select(U, NoMask, nil, Triu[bool](), A, false, nil); err != nil {
		t.Fatal(err)
	}
	C := MustMatrix[int64](3, 3)
	if err := MxM(C, StructMaskOf(L), nil, PlusPair[bool, bool, int64](), L, U, DescT1); err != nil {
		t.Fatal(err)
	}
	total := ReduceMatrixToScalar(PlusMonoid[int64](), C)
	if total != 1 {
		t.Fatalf("triangles = %d, want 1", total)
	}
}

func TestMxVEmptyFrontier(t *testing.T) {
	A := mustFromTuples(t, 3, 3, []int{0}, []int{1}, []float64{1})
	u := MustVector[float64](3)
	w := MustVector[float64](3)
	if err := MxV(w, NoVMask, nil, PlusTimes[float64](), A, u, nil); err != nil {
		t.Fatal(err)
	}
	if w.NVals() != 0 {
		t.Fatalf("empty frontier produced %d entries", w.NVals())
	}
}

func TestDimensionMismatchErrors(t *testing.T) {
	A := MustMatrix[float64](3, 4)
	B := MustMatrix[float64](3, 4) // inner dims mismatch
	C := MustMatrix[float64](3, 4)
	if err := MxM(C, NoMask, nil, PlusTimes[float64](), A, B, nil); err == nil {
		t.Fatal("inner dimension mismatch accepted")
	}
	u := MustVector[float64](5)
	w := MustVector[float64](4)
	if err := VxM(w, NoVMask, nil, PlusTimes[float64](), u, A, nil); err == nil {
		t.Fatal("vxm length mismatch accepted")
	}
	wBad := MustVector[float64](7)
	if err := MxV(wBad, NoVMask, nil, PlusTimes[float64](), A, u, nil); err == nil {
		t.Fatal("mxv length mismatch accepted")
	}
	mBad := MustVector[float64](9)
	wOK := MustVector[float64](3)
	uOK := MustVector[float64](4)
	if err := MxV(wOK, VMaskOf(mBad), nil, PlusTimes[float64](), A, uOK, nil); err == nil {
		t.Fatal("mask length mismatch accepted")
	}
}
