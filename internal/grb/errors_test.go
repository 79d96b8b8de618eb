package grb

import (
	"errors"
	"testing"
)

// Failure-injection tests: every operation must reject shape and mask
// mismatches with GrB-style Info codes instead of panicking or silently
// proceeding.

func TestInfoStringsAndInfoOf(t *testing.T) {
	cases := map[Info]string{
		Success:           "GrB_SUCCESS",
		NoValue:           "GrB_NO_VALUE",
		DimensionMismatch: "GrB_DIMENSION_MISMATCH",
		IndexOutOfBounds:  "GrB_INDEX_OUT_OF_BOUNDS",
		InvalidValue:      "GrB_INVALID_VALUE",
		NotImplemented:    "GrB_NOT_IMPLEMENTED",
	}
	for info, want := range cases {
		if info.String() != want {
			t.Fatalf("%d prints %q, want %q", info, info.String(), want)
		}
	}
	if InfoOf(nil) != Success {
		t.Fatal("nil error is Success")
	}
	if InfoOf(errors.New("random")) != Panic {
		t.Fatal("foreign error maps to Panic")
	}
	err := errf(DomainMismatch, "types differ")
	if InfoOf(err) != DomainMismatch {
		t.Fatal("info lost")
	}
	if err.Error() == "" {
		t.Fatal("empty message")
	}
}

func TestErrorPathsEWise(t *testing.T) {
	A := MustMatrix[float64](2, 3)
	B := MustMatrix[float64](3, 2)
	C := MustMatrix[float64](2, 3)
	if err := EWiseAdd(C, NoMask, nil, AddOp(PlusOp[float64]()), A, B, nil); InfoOf(err) != DimensionMismatch {
		t.Fatalf("eWiseAdd shape: %v", err)
	}
	if err := EWiseMult(C, NoMask, nil, TimesOp[float64](), A, B, nil); InfoOf(err) != DimensionMismatch {
		t.Fatalf("eWiseMult shape: %v", err)
	}
	Cbad := MustMatrix[float64](5, 5)
	A2 := MustMatrix[float64](2, 3)
	if err := EWiseAdd(Cbad, NoMask, nil, AddOp(PlusOp[float64]()), A, A2, nil); InfoOf(err) != DimensionMismatch {
		t.Fatalf("eWiseAdd output shape: %v", err)
	}
	u := MustVector[float64](3)
	v := MustVector[float64](4)
	w := MustVector[float64](3)
	if err := EWiseAddV(w, NoVMask, nil, PlusOp[float64](), u, v, nil); InfoOf(err) != DimensionMismatch {
		t.Fatalf("eWiseAddV shape: %v", err)
	}
	if err := EWiseMultV(w, NoVMask, nil, TimesOp[float64](), u, v, nil); InfoOf(err) != DimensionMismatch {
		t.Fatalf("eWiseMultV shape: %v", err)
	}
}

func TestErrorPathsApplySelectReduce(t *testing.T) {
	A := MustMatrix[float64](2, 3)
	C := MustMatrix[float64](3, 2)
	if err := Apply(C, NoMask, nil, AbsOp[float64](), A, nil); InfoOf(err) != DimensionMismatch {
		t.Fatalf("apply shape: %v", err)
	}
	if err := Select(C, NoMask, nil, Tril[float64](), A, 0, nil); InfoOf(err) != DimensionMismatch {
		t.Fatalf("select shape: %v", err)
	}
	w := MustVector[float64](5)
	if err := ReduceMatrixToVector(w, NoVMask, nil, PlusMonoid[float64](), A, nil); InfoOf(err) != DimensionMismatch {
		t.Fatalf("reduce shape: %v", err)
	}
	u := MustVector[float64](3)
	wv := MustVector[float64](4)
	if err := ApplyV(wv, NoVMask, nil, AbsOp[float64](), u, nil); InfoOf(err) != DimensionMismatch {
		t.Fatalf("applyv shape: %v", err)
	}
	if err := SelectV(wv, NoVMask, nil, ValueGT[float64](), u, 0, nil); InfoOf(err) != DimensionMismatch {
		t.Fatalf("selectv shape: %v", err)
	}
}

func TestErrorPathsExtractAssign(t *testing.T) {
	A := MustMatrix[float64](3, 3)
	C := MustMatrix[float64](2, 2)
	if err := ExtractSubmatrix(C, NoMask, nil, A, []int{0, 5}, []int{0, 1}, nil); InfoOf(err) != IndexOutOfBounds {
		t.Fatalf("extract row oob: %v", err)
	}
	if err := ExtractSubmatrix(C, NoMask, nil, A, []int{0, 1}, []int{0, 9}, nil); InfoOf(err) != IndexOutOfBounds {
		t.Fatalf("extract col oob: %v", err)
	}
	Cbad := MustMatrix[float64](5, 5)
	if err := ExtractSubmatrix(Cbad, NoMask, nil, A, []int{0, 1}, []int{0, 1}, nil); InfoOf(err) != DimensionMismatch {
		t.Fatalf("extract out shape: %v", err)
	}
	w := MustVector[float64](3)
	if err := ExtractColumn(w, NoVMask, nil, A, All, 7, nil); InfoOf(err) != InvalidIndex {
		t.Fatalf("extract col idx: %v", err)
	}
	if err := ExtractColumn(MustVector[float64](2), NoVMask, nil, A, []int{0, 7}, 1, nil); InfoOf(err) != IndexOutOfBounds {
		t.Fatalf("extract column row oob: %v", err)
	}
	u := MustVector[float64](4)
	if err := ExtractSubvector(w, NoVMask, nil, u, []int{0, 9, 1}, nil); InfoOf(err) != IndexOutOfBounds {
		t.Fatalf("gather oob: %v", err)
	}
	// assign
	tgt := MustVector[float64](4)
	src := MustVector[float64](2)
	if err := AssignVector(tgt, NoVMask, nil, src, []int{0, 9}, nil); InfoOf(err) != IndexOutOfBounds {
		t.Fatalf("assign idx oob: %v", err)
	}
	if err := AssignVector(tgt, NoVMask, nil, src, []int{0, 1, 2}, nil); InfoOf(err) != DimensionMismatch {
		t.Fatalf("assign region size: %v", err)
	}
	if err := AssignVectorScalar(tgt, NoVMask, nil, 1, []int{-1}, nil); InfoOf(err) != IndexOutOfBounds {
		t.Fatalf("assign scalar idx: %v", err)
	}
	M := MustMatrix[float64](3, 3)
	if err := AssignMatrixScalar(M, NoMask, nil, 1, []int{4}, All, nil); InfoOf(err) != IndexOutOfBounds {
		t.Fatalf("matrix scalar assign row: %v", err)
	}
}

func TestErrorPathsMaskShape(t *testing.T) {
	A := MustMatrix[float64](3, 3)
	C := MustMatrix[float64](3, 3)
	badMask := MustMatrix[bool](2, 2)
	ops := map[string]error{
		"mxm":    MxM(C, StructMaskOf(badMask), nil, PlusTimes[float64](), A, A, nil),
		"apply":  Apply(C, StructMaskOf(badMask), nil, AbsOp[float64](), A, nil),
		"select": Select(C, StructMaskOf(badMask), nil, Tril[float64](), A, 0, nil),
		"eadd":   EWiseAdd(C, StructMaskOf(badMask), nil, AddOp(PlusOp[float64]()), A, A, nil),
		"trans":  Transpose(C, StructMaskOf(badMask), nil, A, nil),
		"extract": ExtractSubmatrix(MustMatrix[float64](2, 2), StructMaskOf(MustMatrix[bool](3, 3)), nil,
			A, []int{0, 1}, []int{0, 1}, nil),
	}
	for name, err := range ops {
		if InfoOf(err) != DimensionMismatch {
			t.Fatalf("%s with wrong-shaped mask: %v", name, err)
		}
	}
}

func TestTransposeShapeValidation(t *testing.T) {
	A := MustMatrix[float64](2, 3)
	Cbad := MustMatrix[float64](2, 3) // must be 3x2
	if err := Transpose(Cbad, NoMask, nil, A, nil); InfoOf(err) != DimensionMismatch {
		t.Fatalf("transpose shape: %v", err)
	}
	// With TranA the transposes cancel and 2x3 is correct.
	C := MustMatrix[float64](2, 3)
	if err := Transpose(C, NoMask, nil, A, DescT0); err != nil {
		t.Fatalf("transpose T0: %v", err)
	}
}

func TestVectorFromTuplesValidation(t *testing.T) {
	if _, err := VectorFromTuples(3, []int{0, 5}, []float64{1, 2}, nil); InfoOf(err) != IndexOutOfBounds {
		t.Fatal("vector tuple oob accepted")
	}
	if _, err := VectorFromTuples(3, []int{0}, []float64{1, 2}, nil); InfoOf(err) != InvalidValue {
		t.Fatal("vector tuple length mismatch accepted")
	}
}

func TestMaskedExtractAndAssign(t *testing.T) {
	// Extract with a mask restricted to allowed positions.
	A := mustFromTuples(t, 3, 3,
		[]int{0, 1, 2}, []int{0, 1, 2}, []float64{1, 2, 3})
	M := mustFromTuples(t, 2, 2, []int{0}, []int{0}, []bool{true})
	C := MustMatrix[float64](2, 2)
	if err := ExtractSubmatrix(C, StructMaskOf(M), nil, A, []int{0, 1}, []int{0, 1}, nil); err != nil {
		t.Fatal(err)
	}
	matricesEqual(t, C, map[coord]float64{{0, 0}: 1}, "masked extract")

	// Masked scalar assign to a region.
	D := MustMatrix[int64](3, 3)
	rowMask := mustFromTuples(t, 3, 3, []int{0, 1}, []int{1, 1}, []bool{true, true})
	if err := AssignMatrixScalar(D, StructMaskOf(rowMask), nil, 7, All, All, nil); err != nil {
		t.Fatal(err)
	}
	matricesEqual(t, D, map[coord]int64{{0, 1}: 7, {1, 1}: 7}, "masked matrix scalar assign")
}
