package grb

import (
	"math/rand"
	"testing"
)

// Cross-product tests: every kernel must produce identical results no
// matter which storage format its inputs arrive in. These lock in the
// format-switching behaviour §VI-A's evaluation depends on.

var allFormats = []Format{FormatSparse, FormatBitmap, FormatFull}

// inFormat returns a copy of m converted toward f (full conversion only
// succeeds for complete matrices; the copy stays bitmap otherwise, which
// is itself a valid case).
func inFormat[T Value](m *Matrix[T], f Format) *Matrix[T] {
	c := m.Dup()
	c.ConvertTo(f)
	return c
}

func vecInFormat[T Value](v *Vector[T], f Format) *Vector[T] {
	c := v.Dup()
	c.ConvertTo(f)
	return c
}

func TestMxMAcrossInputFormats(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	n := 12
	A := randMatrix(rng, n, n, 0.3)
	B := randMatrix(rng, n, n, 0.3)
	ref := MustMatrix[float64](n, n)
	if err := MxM(ref, NoMask, nil, PlusTimes[float64](), A, B, nil); err != nil {
		t.Fatal(err)
	}
	want := denseOf(ref)
	for _, fa := range allFormats {
		for _, fb := range allFormats {
			Af := inFormat(A, fa)
			Bf := inFormat(B, fb)
			C := MustMatrix[float64](n, n)
			if err := MxM(C, NoMask, nil, PlusTimes[float64](), Af, Bf, nil); err != nil {
				t.Fatalf("%v x %v: %v", fa, fb, err)
			}
			matricesEqual(t, C, want, "mxm "+fa.String()+"x"+fb.String())
		}
	}
}

func TestMxMDotKernelAcrossFormats(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	n := 10
	A := randMatrix(rng, n, n, 0.3)
	B := randMatrix(rng, n, n, 0.3)
	M := randMatrix(rng, n, n, 0.4)
	ref := MustMatrix[float64](n, n)
	if err := MxM(ref, StructMaskOf(M), nil, PlusTimes[float64](), A, B, DescT1); err != nil {
		t.Fatal(err)
	}
	want := denseOf(ref)
	for _, fa := range allFormats {
		for _, fb := range allFormats {
			C := MustMatrix[float64](n, n)
			if err := MxM(C, StructMaskOf(M), nil, PlusTimes[float64](), inFormat(A, fa), inFormat(B, fb), DescT1); err != nil {
				t.Fatalf("%v x %v: %v", fa, fb, err)
			}
			matricesEqual(t, C, want, "masked dot "+fa.String()+"x"+fb.String())
		}
	}
}

func TestVxMMxVAcrossFormats(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	n := 15
	A := randMatrix(rng, n, n, 0.3)
	u := randVector(rng, n, 0.5)
	refPush := MustVector[float64](n)
	if err := VxM(refPush, NoVMask, nil, PlusTimes[float64](), u, A, nil); err != nil {
		t.Fatal(err)
	}
	refPull := MustVector[float64](n)
	if err := MxV(refPull, NoVMask, nil, PlusTimes[float64](), A, u, nil); err != nil {
		t.Fatal(err)
	}
	wantPush := vdenseOf(refPush)
	wantPull := vdenseOf(refPull)
	for _, fa := range allFormats {
		for _, fu := range allFormats {
			Af := inFormat(A, fa)
			uf := vecInFormat(u, fu)
			w1 := MustVector[float64](n)
			if err := VxM(w1, NoVMask, nil, PlusTimes[float64](), uf, Af, nil); err != nil {
				t.Fatalf("vxm %v/%v: %v", fa, fu, err)
			}
			vectorsEqual(t, w1, wantPush, "vxm "+fa.String()+"/"+fu.String())
			w2 := MustVector[float64](n)
			if err := MxV(w2, NoVMask, nil, PlusTimes[float64](), Af, uf, nil); err != nil {
				t.Fatalf("mxv %v/%v: %v", fa, fu, err)
			}
			vectorsEqual(t, w2, wantPull, "mxv "+fa.String()+"/"+fu.String())
		}
	}
}

func TestEWiseAcrossFormats(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	n := 10
	A := randMatrix(rng, n, n, 0.3)
	B := randMatrix(rng, n, n, 0.3)
	refAdd := MustMatrix[float64](n, n)
	if err := EWiseAdd(refAdd, NoMask, nil, AddOp(PlusOp[float64]()), A, B, nil); err != nil {
		t.Fatal(err)
	}
	refMul := MustMatrix[float64](n, n)
	if err := EWiseMult(refMul, NoMask, nil, TimesOp[float64](), A, B, nil); err != nil {
		t.Fatal(err)
	}
	wantAdd := denseOf(refAdd)
	wantMul := denseOf(refMul)
	for _, fa := range allFormats {
		for _, fb := range allFormats {
			Af := inFormat(A, fa)
			Bf := inFormat(B, fb)
			C := MustMatrix[float64](n, n)
			if err := EWiseAdd(C, NoMask, nil, AddOp(PlusOp[float64]()), Af, Bf, nil); err != nil {
				t.Fatal(err)
			}
			matricesEqual(t, C, wantAdd, "eadd "+fa.String()+"x"+fb.String())
			D := MustMatrix[float64](n, n)
			if err := EWiseMult(D, NoMask, nil, TimesOp[float64](), Af, Bf, nil); err != nil {
				t.Fatal(err)
			}
			matricesEqual(t, D, wantMul, "emult "+fa.String()+"x"+fb.String())
		}
	}
}

func TestTransposeReduceSelectAcrossFormats(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	nr, nc := 8, 11
	A := randMatrix(rng, nr, nc, 0.3)
	refT := denseOf(NewTranspose(A))
	refR := MustVector[float64](nr)
	if err := ReduceMatrixToVector(refR, NoVMask, nil, PlusMonoid[float64](), A, nil); err != nil {
		t.Fatal(err)
	}
	wantR := vdenseOf(refR)
	refS := MustMatrix[float64](nr, nc)
	if err := Select(refS, NoMask, nil, ValueGT[float64](), A, 4, nil); err != nil {
		t.Fatal(err)
	}
	wantS := denseOf(refS)
	for _, f := range allFormats {
		Af := inFormat(A, f)
		T := NewTranspose(Af)
		matricesEqual(t, T, refT, "transpose "+f.String())
		r := MustVector[float64](nr)
		if err := ReduceMatrixToVector(r, NoVMask, nil, PlusMonoid[float64](), Af, nil); err != nil {
			t.Fatal(err)
		}
		vectorsEqual(t, r, wantR, "reduce "+f.String())
		S := MustMatrix[float64](nr, nc)
		if err := Select(S, NoMask, nil, ValueGT[float64](), Af, 4, nil); err != nil {
			t.Fatal(err)
		}
		matricesEqual(t, S, wantS, "select "+f.String())
	}
}

func TestDenseMaskSources(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	n := 10
	A := randMatrix(rng, n, n, 0.4)
	B := randMatrix(rng, n, n, 0.4)
	M := randMatrix(rng, n, n, 0.5)
	ref := MustMatrix[float64](n, n)
	if err := MxM(ref, MaskOf(M), nil, PlusTimes[float64](), A, B, nil); err != nil {
		t.Fatal(err)
	}
	want := denseOf(ref)
	for _, fm := range []Format{FormatBitmap} {
		Mf := inFormat(M, fm)
		C := MustMatrix[float64](n, n)
		if err := MxM(C, MaskOf(Mf), nil, PlusTimes[float64](), A, B, nil); err != nil {
			t.Fatal(err)
		}
		matricesEqual(t, C, want, "dense mask "+fm.String())
	}
	// Complemented dense mask.
	refC := MustMatrix[float64](n, n)
	if err := MxM(refC, MaskOf(M).Not(), nil, PlusTimes[float64](), A, B, nil); err != nil {
		t.Fatal(err)
	}
	MB := inFormat(M, FormatBitmap)
	C2 := MustMatrix[float64](n, n)
	if err := MxM(C2, MaskOf(MB).Not(), nil, PlusTimes[float64](), A, B, nil); err != nil {
		t.Fatal(err)
	}
	matricesEqual(t, C2, denseOf(refC), "complemented dense mask")
}

func TestPendingWorkFlushedBeforeKernels(t *testing.T) {
	// A matrix with pending tuples, zombies AND jumbled rows must behave
	// identically to its finished copy in every operation.
	rng := rand.New(rand.NewSource(107))
	n := 10
	base := randMatrix(rng, n, n, 0.3)
	dirty, err := ImportCSR(n, n, append([]int(nil), base.ptr...),
		append([]int(nil), base.idx...), append([]float64(nil), base.val...), false)
	if err != nil {
		t.Fatal(err)
	}
	// Make it dirty: add pending, delete one entry (zombie), jumble rows.
	dirty.SetElement(42, 0, n-1)
	rows, cols, _ := base.ExtractTuples()
	if len(rows) > 0 {
		dirty.RemoveElement(rows[0], cols[0])
	}
	dirty.jumbled = true

	clean := base.Dup()
	clean.SetElement(42, 0, n-1)
	if len(rows) > 0 {
		clean.RemoveElement(rows[0], cols[0])
	}
	clean.Wait()

	u := randVector(rng, n, 0.5)
	w1 := MustVector[float64](n)
	if err := VxM(w1, NoVMask, nil, PlusTimes[float64](), u, dirty, nil); err != nil {
		t.Fatal(err)
	}
	w2 := MustVector[float64](n)
	if err := VxM(w2, NoVMask, nil, PlusTimes[float64](), u, clean, nil); err != nil {
		t.Fatal(err)
	}
	vectorsEqual(t, w1, vdenseOf(w2), "dirty vs clean vxm")
}

func TestLazySortObservableOnKernelOutputs(t *testing.T) {
	prev := SetLazySortEnabled(true)
	defer SetLazySortEnabled(prev)
	prevBM := SetBitmapEnabled(false) // keep results sparse so jumble is observable
	defer SetBitmapEnabled(prevBM)
	rng := rand.New(rand.NewSource(108))
	// A saxpy product emits columns in accumulator-touch order, so with
	// the lazy sort enabled some rows are typically left jumbled; Wait
	// must sort them and preserve contents.
	found := false
	for trial := 0; trial < 20 && !found; trial++ {
		A := randMatrix(rng, 20, 20, 0.25)
		B := randMatrix(rng, 20, 20, 0.25)
		C := MustMatrix[float64](20, 20)
		if err := MxM(C, NoMask, nil, PlusTimes[float64](), A, B, nil); err != nil {
			t.Fatal(err)
		}
		if C.Format() != FormatSparse {
			continue
		}
		if C.Jumbled() {
			found = true
			// Extraction forces the deferred sort; contents must match
			// the independent reference and the flag must clear.
			matricesEqual(t, C, naiveMxM(A, B), "lazy sort preserves contents")
			if C.Jumbled() {
				t.Fatal("Wait left the matrix jumbled")
			}
		}
	}
	if !found {
		t.Skip("no jumbled result produced at this density (acceptable)")
	}
}

func TestConformSwitchesFormats(t *testing.T) {
	prevBM := SetBitmapEnabled(true)
	defer SetBitmapEnabled(prevBM)
	// A dense-ish vector result should become bitmap/full automatically.
	n := 4096
	v := MustVector[float64](n)
	for i := 0; i < n; i++ {
		v.SetElement(1, i)
	}
	v.Wait()
	v.conform()
	if v.Format() == FormatSparse {
		t.Fatalf("dense vector stayed sparse")
	}
	// With bitmap disabled, conform keeps sparse.
	SetBitmapEnabled(false)
	u := MustVector[float64](n)
	for i := 0; i < n; i++ {
		u.SetElement(1, i)
	}
	u.Wait()
	u.conform()
	if u.Format() != FormatSparse {
		t.Fatalf("bitmap disabled but format is %v", u.Format())
	}
}
