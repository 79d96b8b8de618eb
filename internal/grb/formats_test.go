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

// operandIn returns a random matrix stored in format f: sparse operands
// are sparse in content too, and a full one holds every cell.
func operandIn(rng *rand.Rand, nr, nc int, f Format) *Matrix[float64] {
	density := map[Format]float64{FormatSparse: 0.2, FormatBitmap: 0.5, FormatFull: 1}[f]
	m := randMatrix(rng, nr, nc, density)
	m.ConvertTo(f)
	return m
}

func vecOperandIn(rng *rand.Rand, n int, f Format) *Vector[float64] {
	density := map[Format]float64{FormatSparse: 0.2, FormatBitmap: 0.5, FormatFull: 1}[f]
	v := randVector(rng, n, density)
	v.ConvertTo(f)
	return v
}

// withZeros rewrites about a third of the stored values to an explicit
// zero, so that a valued mask and a structural one differ.
func withZeros(rng *rand.Rand, vals []float64) {
	for k := range vals {
		if rng.Intn(3) == 0 {
			vals[k] = 0
		}
	}
}

// maskVariant names one of the mask shapes every element-wise, apply and
// select path is checked under.
type maskVariant struct {
	name             string
	none, dense      bool
	structural, comp bool
}

var maskVariants = []maskVariant{
	{name: "nomask", none: true},
	{name: "s(sparse)", structural: true},
	{name: "valued(sparse)"},
	{name: "¬s(sparse)", structural: true, comp: true},
	{name: "valued(bitmap)", dense: true},
}

func (mv maskVariant) matrix(M *Matrix[float64]) Mask {
	if mv.none {
		return NoMask
	}
	M = M.Dup()
	if mv.dense {
		M.ConvertTo(FormatBitmap)
	}
	mk := MaskOf(M)
	if mv.structural {
		mk = mk.Structure()
	}
	if mv.comp {
		mk = mk.Not()
	}
	return mk
}

func (mv maskVariant) vector(m *Vector[float64]) VMask {
	if mv.none {
		return NoVMask
	}
	m = m.Dup()
	if mv.dense {
		m.ConvertTo(FormatBitmap)
	}
	mk := VMaskOf(m)
	if mv.structural {
		mk = mk.Structure()
	}
	if mv.comp {
		mk = mk.Not()
	}
	return mk
}

// asCoords lifts a dense vector image to the (i, 0) coordinates the mask
// model speaks; colMatrix is the same lift for a vector.
func asCoords(v map[int]float64) map[coord]float64 {
	out := make(map[coord]float64, len(v))
	for i, x := range v {
		out[coord{i, 0}] = x
	}
	return out
}

func colMatrix(t *testing.T, v *Vector[float64]) *Matrix[float64] {
	t.Helper()
	idx, vals := v.ExtractTuples()
	m, err := MatrixFromTuples(v.Size(), 1, idx, make([]int, len(idx)), vals, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestEWiseAcrossFormats is the differential test of the operand-driven
// paths: for every storage format of both operands and of the output,
// every mask shape, accumulator and replace setting, the element-wise,
// apply and select operations must agree with the same call made on
// sparse copies of everything — which takes the sorted-merge kernel and
// the general mask/accumulate tail, the reference paths — and that
// reference must in turn equal the element-by-element model of the mask
// and accumulator semantics (mask_semantics_test.go).
func TestEWiseAcrossFormats(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	const nr, nc = 5, 12
	plus := func(a, b float64) float64 { return a + b }
	sparse := func(m *Matrix[float64]) *Matrix[float64] { return inFormat(m, FormatSparse) }
	vsparse := func(v *Vector[float64]) *Vector[float64] { return vecInFormat(v, FormatSparse) }
	half := float64(5)

	mr, mcols, mvals := randMatrix(rng, nr, nc, 0.4).ExtractTuples()
	withZeros(rng, mvals)
	M, _ := MatrixFromTuples(nr, nc, mr, mcols, mvals, nil)
	mi, mv := randVector(rng, nc, 0.4).ExtractTuples()
	withZeros(rng, mv)
	m, _ := VectorFromTuples(nc, mi, mv, nil)

	mSet, mvSet := denseOf(M), asCoords(vdenseOf(m))
	list := rng.Perm(nc) // an index list with a duplicate
	list[1] = list[0]
	for _, fa := range allFormats {
		for _, fb := range allFormats {
			A, B := operandIn(rng, nr, nc, fa), operandIn(rng, nr, nc, fb)
			u, v := vecOperandIn(rng, nc, fa), vecOperandIn(rng, nc, fb)
			// The unmasked results, element by element: the model's T.
			tOf := map[string]map[coord]float64{"ApplyV": {}, "SelectV": {}, "AssignVectorScalar": {}, "ExtractSubvector": {}}
			tOf["EWiseAdd"], tOf["EWiseMult"] = unionAndIntersection(denseOf(A), denseOf(B))
			du := asCoords(vdenseOf(u))
			tOf["EWiseAddV"], tOf["EWiseMultV"] = unionAndIntersection(du, asCoords(vdenseOf(v)))
			for i := 0; i < nc; i++ {
				p := coord{i, 0}
				if a, ok := du[p]; ok {
					tOf["ApplyV"][p] = -a
					if a >= half {
						tOf["SelectV"][p] = a
					}
				}
				tOf["AssignVectorScalar"][p] = half
				if a, ok := du[coord{list[i], 0}]; ok {
					tOf["ExtractSubvector"][p] = a
				}
			}
			tOf["AssignVector(All)"] = du
			for _, fc := range allFormats {
				C0, w0 := operandIn(rng, nr, nc, fc), vecOperandIn(rng, nc, fc)
				for _, mvar := range maskVariants {
					for _, withAccum := range []bool{false, true} {
						for _, replace := range []bool{false, true} {
							var acc func(float64, float64) float64
							if withAccum {
								acc = plus
							}
							var desc *Descriptor
							if replace {
								desc = DescR
							}
							label := fa.String() + "∘" + fb.String() + " into " + fc.String() + " " + mvar.name
							if withAccum {
								label += " accum"
							}
							if replace {
								label += " replace"
							}
							mk, vmk := mvar.matrix(M), mvar.vector(m)

							matrixOps := map[string]func(C, A, B *Matrix[float64]) error{
								"EWiseAdd": func(C, A, B *Matrix[float64]) error {
									return EWiseAdd(C, mk, acc, AddOp(PlusOp[float64]()), A, B, desc)
								},
								"EWiseMult": func(C, A, B *Matrix[float64]) error {
									return EWiseMult(C, mk, acc, TimesOp[float64](), A, B, desc)
								},
							}
							for name, op := range matrixOps {
								got, want := C0.Dup(), sparse(C0)
								if err := op(got, A, B); err != nil {
									t.Fatalf("%s %s: %v", name, label, err)
								}
								if err := op(want, sparse(A), sparse(B)); err != nil {
									t.Fatalf("%s %s (reference): %v", name, label, err)
								}
								matricesEqual(t, got, denseOf(want), name+" "+label)
								exists := func(p coord) bool { _, ok := mSet[p]; return ok }
								if mvar.none {
									exists = nil
								}
								matricesEqual(t, want, modelMaskAccum(denseOf(C0), tOf[name], mSet, exists,
									mvar.comp, mvar.structural, replace, withAccum, nil), name+" reference vs model "+label)
							}

							vectorOps := map[string]func(w, u, v *Vector[float64]) error{
								"EWiseAddV": func(w, u, v *Vector[float64]) error {
									return EWiseAddV(w, vmk, acc, PlusOp[float64](), u, v, desc)
								},
								"EWiseMultV": func(w, u, v *Vector[float64]) error {
									return EWiseMultV(w, vmk, acc, TimesOp[float64](), u, v, desc)
								},
								"ApplyV": func(w, u, _ *Vector[float64]) error {
									return ApplyV(w, vmk, acc, AInvOp[float64](), u, desc)
								},
								"SelectV": func(w, u, _ *Vector[float64]) error {
									return SelectV(w, vmk, acc, ValueGE[float64](), u, half, desc)
								},
								"AssignVectorScalar": func(w, _, _ *Vector[float64]) error {
									return AssignVectorScalar(w, vmk, acc, half, All, desc)
								},
								"ExtractSubvector": func(w, u, _ *Vector[float64]) error {
									return ExtractSubvector(w, vmk, acc, u, list, desc)
								},
								"AssignVector(All)": func(w, u, _ *Vector[float64]) error {
									return AssignVector(w, vmk, acc, u, All, desc)
								},
								"AssignVector(list)": func(w, u, _ *Vector[float64]) error {
									return AssignVector(w, vmk, acc, u, list, desc)
								},
							}
							for name, op := range vectorOps {
								got, want := w0.Dup(), vsparse(w0)
								if err := op(got, u, v); err != nil {
									t.Fatalf("%s %s: %v", name, label, err)
								}
								if err := op(want, vsparse(u), vsparse(v)); err != nil {
									t.Fatalf("%s %s (reference): %v", name, label, err)
								}
								vectorsEqual(t, got, vdenseOf(want), name+" "+label)
								if tOf[name] == nil {
									continue // a scatter is not w⟨m⟩ ⊙= t: the sparse reference is its oracle
								}
								exists := func(p coord) bool { _, ok := mvSet[p]; return ok }
								if mvar.none {
									exists = nil
								}
								matricesEqual(t, colMatrix(t, want), modelMaskAccum(asCoords(vdenseOf(w0)), tOf[name], mvSet, exists,
									mvar.comp, mvar.structural, replace, withAccum, nil), name+" reference vs model "+label)
							}
						}
					}
				}
			}
		}
	}
}

// TestEWiseAliasedOutputs names the aliasing shapes the in-place paths
// must get right: the output as first or second operand, as its own mask,
// as a copy-on-write snapshot of a shared matrix, and with pending tuples.
func TestEWiseAliasedOutputs(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	const nr, nc = 4, 14
	plus := func(a, b float64) float64 { return a + b }
	addOp := AddOp(PlusOp[float64]())
	M, m := randMatrix(rng, nr, nc, 0.4), randVector(rng, nc, 0.4)
	S, list := randMatrix(rng, nc, nc, 0.3), rng.Perm(nc)
	list[1] = list[0]

	for _, fp := range allFormats {
		for _, ff := range allFormats {
			label := fp.String() + "," + ff.String()
			P0, F := operandIn(rng, nr, nc, fp), operandIn(rng, nr, nc, ff)
			t0, r := vecOperandIn(rng, nc, fp), vecOperandIn(rng, nc, ff)

			// The output as first and as second operand, under every mask
			// shape, with and without accumulator and replace; the
			// vector op is order-sensitive.
			minus := MinusOp[float64]()
			for _, mvar := range maskVariants {
				for _, acc := range []func(float64, float64) float64{nil, plus} {
					for _, desc := range []*Descriptor{nil, DescR} {
						lbl := label + " " + mvar.name
						if acc != nil {
							lbl += " accum"
						}
						if desc != nil {
							lbl += " replace"
						}
						mk, vmk := mvar.matrix(M), mvar.vector(m)
						want, P := P0.Dup(), P0.Dup()
						if err := EWiseAdd(want, mk, acc, addOp, P0.Dup(), F, desc); err != nil {
							t.Fatal(err)
						}
						if err := EWiseAdd(P, mk, acc, addOp, P, F, desc); err != nil {
							t.Fatal(err)
						}
						matricesEqual(t, P, denseOf(want), "EWiseAdd(P,…,P,F) "+lbl)
						P = P0.Dup()
						if err := EWiseAdd(P, mk, acc, addOp, F, P, desc); err != nil {
							t.Fatal(err)
						}
						matricesEqual(t, P, denseOf(want), "EWiseAdd(P,…,F,P) "+lbl)

						wantV, tv := t0.Dup(), t0.Dup()
						if err := EWiseAddV(wantV, vmk, acc, minus, t0.Dup(), r, desc); err != nil {
							t.Fatal(err)
						}
						if err := EWiseAddV(tv, vmk, acc, minus, tv, r, desc); err != nil {
							t.Fatal(err)
						}
						vectorsEqual(t, tv, vdenseOf(wantV), "EWiseAddV(t,…,t,r) "+lbl)
						wantV, tv = t0.Dup(), t0.Dup()
						if err := EWiseAddV(wantV, vmk, acc, minus, r, t0.Dup(), desc); err != nil {
							t.Fatal(err)
						}
						if err := EWiseAddV(tv, vmk, acc, minus, r, tv, desc); err != nil {
							t.Fatal(err)
						}
						vectorsEqual(t, tv, vdenseOf(wantV), "EWiseAddV(w,…,u,w) "+lbl)

						// The output read at other positions than the one written —
						// through an index list (with a duplicate) or a product —
						// against the same call on a copy of it.
						for name, op := range map[string]func(w, u *Vector[float64]) error{
							"w = w(list)": func(w, u *Vector[float64]) error {
								return ExtractSubvector(w, vmk, acc, u, list, desc)
							},
							"w(list) = w": func(w, u *Vector[float64]) error {
								return AssignVector(w, vmk, acc, u, list, desc)
							},
							"w(:) = w": func(w, u *Vector[float64]) error {
								return AssignVector(w, vmk, acc, u, All, desc)
							},
							"w = A·w": func(w, u *Vector[float64]) error {
								return MxV(w, vmk, acc, PlusSecond[float64, float64](), S, u, desc)
							},
							"w = w·A": func(w, u *Vector[float64]) error {
								return VxM(w, vmk, acc, PlusFirst[float64, float64](), u, S, desc)
							},
						} {
							wantV, tv := t0.Dup(), t0.Dup()
							if err := op(wantV, t0.Dup()); err != nil {
								t.Fatal(err)
							}
							if err := op(tv, tv); err != nil {
								t.Fatal(err)
							}
							vectorsEqual(t, tv, vdenseOf(wantV), name+" "+lbl)
						}
					}
				}
			}

			// The output is its own (valued) mask.
			wantSelf := P0.Dup()
			if err := EWiseMult(wantSelf, MaskOf(P0.Dup()), plus, TimesOp[float64](), P0.Dup(), F, nil); err != nil {
				t.Fatal(err)
			}
			P := P0.Dup()
			if err := EWiseMult(P, MaskOf(P), plus, TimesOp[float64](), P, F, nil); err != nil {
				t.Fatal(err)
			}
			matricesEqual(t, P, denseOf(wantSelf), "EWiseMult(P,⟨P⟩,+,P,F) "+label)
			for name, op := range map[string]func(w *Vector[float64], mk VMask, u *Vector[float64]) error{
				"ApplyV": func(w *Vector[float64], mk VMask, u *Vector[float64]) error {
					return ApplyV(w, mk, nil, AInvOp[float64](), u, DescR)
				},
				"SelectV": func(w *Vector[float64], mk VMask, u *Vector[float64]) error {
					return SelectV(w, mk, plus, ValueGE[float64](), u, 3, nil)
				},
				"EWiseMultV": func(w *Vector[float64], mk VMask, u *Vector[float64]) error {
					return EWiseMultV(w, mk, nil, TimesOp[float64](), u, r, nil)
				},
				"AssignVectorScalar": func(w *Vector[float64], mk VMask, _ *Vector[float64]) error {
					return AssignVectorScalar(w, mk.Structure(), plus, 7, All, nil)
				},
			} {
				wantW := t0.Dup()
				if err := op(wantW, VMaskOf(t0.Dup()), t0.Dup()); err != nil {
					t.Fatal(err)
				}
				w := t0.Dup()
				if err := op(w, VMaskOf(w), w); err != nil {
					t.Fatal(err)
				}
				vectorsEqual(t, w, vdenseOf(wantW), name+"(w,⟨w⟩,…,w) "+label)
			}
		}

		// The output is a snapshot of a shared matrix: the base must not
		// move, whatever format the other operand arrives in.
		base := operandIn(rng, nr, nc, FormatSparse)
		baseWant := denseOf(base)
		F := operandIn(rng, nr, nc, fp)
		for name, op := range map[string]func(C *Matrix[float64]) error{
			"EWiseAdd(C,…,C,F)":    func(C *Matrix[float64]) error { return EWiseAdd(C, NoMask, nil, addOp, C, F, nil) },
			"EWiseAdd(C,+,F,F)":    func(C *Matrix[float64]) error { return EWiseAdd(C, NoMask, plus, addOp, F, F, nil) },
			"EWiseMult(C,+,C,F)":   func(C *Matrix[float64]) error { return EWiseMult(C, NoMask, plus, TimesOp[float64](), C, F, nil) },
			"EWiseMult(C,⟨C⟩,C,F)": func(C *Matrix[float64]) error { return EWiseMult(C, MaskOf(C), nil, TimesOp[float64](), C, F, nil) },
		} {
			want := base.Dup()
			if err := op(want); err != nil {
				t.Fatal(err)
			}
			snap, err := base.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if err := op(snap); err != nil {
				t.Fatal(err)
			}
			matricesEqual(t, snap, denseOf(want), name+" on a snapshot, F "+fp.String())
			matricesEqual(t, base, baseWant, name+": snapshot base, F "+fp.String())

			// The same call on an output that still holds pending tuples.
			pend, wantPend := base.Dup(), base.Dup()
			for k := 0; k < 6; k++ {
				i, j, x := rng.Intn(nr), rng.Intn(nc), float64(1+rng.Intn(9))
				if err := pend.SetElement(x, i, j); err != nil {
					t.Fatal(err)
				}
				if err := wantPend.SetElement(x, i, j); err != nil {
					t.Fatal(err)
				}
			}
			wantPend.Wait()
			if err := op(wantPend); err != nil {
				t.Fatal(err)
			}
			if err := op(pend); err != nil {
				t.Fatal(err)
			}
			matricesEqual(t, pend, denseOf(wantPend), name+" on pending tuples, F "+fp.String())
		}
		w, wantW := MustVector[float64](nc), MustVector[float64](nc)
		for k := 0; k < 5; k++ {
			i, x := rng.Intn(nc), float64(1+rng.Intn(9))
			_ = w.SetElement(x, i)
			_ = wantW.SetElement(x, i)
		}
		wantW.Wait()
		r := vecOperandIn(rng, nc, fp)
		if err := EWiseAddV(wantW, NoVMask, nil, PlusOp[float64](), wantW, r, nil); err != nil {
			t.Fatal(err)
		}
		if err := EWiseAddV(w, NoVMask, nil, PlusOp[float64](), w, r, nil); err != nil {
			t.Fatal(err)
		}
		vectorsEqual(t, w, vdenseOf(wantW), "EWiseAddV(w,…,w,r) on pending tuples, r "+fp.String())
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
	// A matrix with pending tuples, a tombstone AND jumbled rows must
	// behave identically to its finished copy in every operation.
	rng := rand.New(rand.NewSource(107))
	n := 10
	base := randMatrix(rng, n, n, 0.3)
	dirty, err := ImportCSR(n, n, append([]int(nil), base.ptr...),
		append([]int(nil), base.idx...), append([]float64(nil), base.val...), false)
	if err != nil {
		t.Fatal(err)
	}
	// Make it dirty: add pending, delete one entry (tombstone), jumble rows.
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

// shapedStore builds a finished store of the given shape — a vector when
// vector is set — holding nvals cells scattered over it (cell 7k mod size
// for k < nvals, so size must be prime to 7), in format f (ConvertTo,
// which applies no policy), and returns the store the type shares.
func shapedStore(t *testing.T, nr, nc int, vector bool, nvals int, f Format) *store[float64] {
	t.Helper()
	var s *store[float64]
	if vector {
		s = &MustVector[float64](nc).store
	} else {
		s = &MustMatrix[float64](nr, nc).store
	}
	for k := 0; k < nvals; k++ {
		p := 7 * k % (nr * nc)
		if err := s.SetElement(float64(p+1), p/nc, p%nc); err != nil {
			t.Fatal(err)
		}
	}
	s.ConvertTo(f)
	if s.Format() != f || s.NVals() != nvals {
		t.Fatalf("built %v with %d entries, want %v with %d", s.Format(), s.NVals(), f, nvals)
	}
	return s
}

// TestConformSwitchesFormats pins the automatic format policy on the three
// shapes it serves, a vector, a 1×n matrix and an m×n one, all of 256 cells:
// a sparse result turns bitmap at 1/8 of its cells, and full when it holds
// all of them; a bitmap turns full when complete and goes back to sparse
// only below 1/16 (the ×2 hysteresis); with the bitmap format disabled
// every result ends sparse.
func TestConformSwitchesFormats(t *testing.T) {
	defer SetBitmapEnabled(SetBitmapEnabled(true))
	const size = 256
	shapes := []struct {
		name   string
		nr, nc int
		vector bool
	}{{"vector", 1, size, true}, {"1xn matrix", 1, size, false}, {"mxn matrix", 16, 16, false}}
	cases := []struct {
		from   Format
		nvals  int
		bitmap bool // SetBitmapEnabled
		want   Format
	}{
		{FormatSparse, size/8 - 1, true, FormatSparse},
		{FormatSparse, size / 8, true, FormatBitmap},
		{FormatSparse, size - 1, true, FormatBitmap},
		{FormatSparse, size, true, FormatFull},
		{FormatBitmap, size / 8, true, FormatBitmap},
		{FormatBitmap, size / 16, true, FormatBitmap},
		{FormatBitmap, size/16 - 1, true, FormatSparse},
		{FormatBitmap, size, true, FormatFull},
		{FormatSparse, size, false, FormatSparse},
		{FormatBitmap, size / 2, false, FormatSparse},
	}
	for _, sh := range shapes {
		for _, c := range cases {
			SetBitmapEnabled(true)
			s := shapedStore(t, sh.nr, sh.nc, sh.vector, c.nvals, c.from)
			SetBitmapEnabled(c.bitmap)
			s.conform()
			if s.Format() != c.want || s.NVals() != c.nvals {
				t.Errorf("%s: %v with %d entries, bitmap enabled %v: conform gave %v with %d entries, want %v",
					sh.name, c.from, c.nvals, c.bitmap, s.Format(), s.NVals(), c.want)
			}
		}
	}
}
