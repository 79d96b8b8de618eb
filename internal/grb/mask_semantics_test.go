package grb

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"lagraph/internal/parallel"
)

// Systematic mask-semantics tests: for every combination of
// {valued, structural} × {plain, complemented} × {merge, replace} ×
// {no accum, accum}, the result of a masked operation must equal the
// slow-but-obvious model computed element by element (paper §III-C's
// semantics).

// modelMaskAccum computes the expected result of C⟨M⟩⊙=T per the spec.
// region, when non-nil, is the set of positions an assign writes: an allowed
// position outside it keeps what C holds.
func modelMaskAccum(
	c, t map[coord]float64,
	m map[coord]float64, mExists func(coord) bool,
	comp, structural, replace bool, accum bool,
	region map[coord]bool,
) map[coord]float64 {
	allowed := func(p coord) bool {
		if mExists == nil {
			return true
		}
		sel := false
		if mExists(p) {
			if structural {
				sel = true
			} else {
				sel = m[p] != 0
			}
		}
		if comp {
			return !sel
		}
		return sel
	}
	out := map[coord]float64{}
	seen := map[coord]bool{}
	for p := range c {
		seen[p] = true
	}
	for p := range t {
		seen[p] = true
	}
	for p := range seen {
		cv, cok := c[p]
		tv, tok := t[p]
		if allowed(p) {
			switch {
			case region != nil && !region[p]:
				if cok {
					out[p] = cv
				}
			case tok && cok:
				if accum {
					out[p] = cv + tv
				} else {
					out[p] = tv
				}
			case tok:
				out[p] = tv
			case cok && accum:
				out[p] = cv
			}
		} else if !replace && cok {
			out[p] = cv
		}
	}
	return out
}

// unionAndIntersection gives the unmasked eWiseAdd (plus over the union,
// single-sided entries passing through) and eWiseMult (times over the
// intersection) of two dense images.
func unionAndIntersection(a, b map[coord]float64) (add, mult map[coord]float64) {
	add, mult = map[coord]float64{}, map[coord]float64{}
	for p, x := range a {
		add[p] = x
		if y, ok := b[p]; ok {
			add[p], mult[p] = x+y, x*y
		}
	}
	for p, y := range b {
		if _, ok := a[p]; !ok {
			add[p] = y
		}
	}
	return add, mult
}

// assignRegion is one (rows, cols) region of an n×n assign with its position
// set; nil rows or cols is the whole range.
type assignRegion struct {
	name       string
	rows, cols []int
	set        map[coord]bool
}

// at maps source position (r, c) to the output position it lands on.
func (reg assignRegion) at(r, c int) coord {
	p := coord{r, c}
	if reg.rows != nil {
		p.i = reg.rows[r]
	}
	if reg.cols != nil {
		p.j = reg.cols[c]
	}
	return p
}

// scalarT is the T of a scalar assign: s at every position of the region.
func (reg assignRegion) scalarT(s float64) map[coord]float64 {
	out := map[coord]float64{}
	for p := range reg.set {
		out[p] = s
	}
	return out
}

// assignRegions draws a sub-region in list order, the whole matrix, and two
// regions with a repeated column and a repeated row index.
func assignRegions(rng *rand.Rand, n int) []assignRegion {
	sub := func() []int { return rng.Perm(n)[:1+rng.Intn(n-1)] }
	dup := func() []int { l := sub(); return append(l, l[rng.Intn(len(l))]) }
	regions := []assignRegion{
		{name: "sub", rows: sub(), cols: sub()},
		{name: "all"},
		{name: "dup cols", rows: sub(), cols: dup()},
		{name: "dup rows", rows: dup()},
	}
	for k := range regions {
		reg := &regions[k]
		nr, nc := len(reg.rows), len(reg.cols)
		if reg.rows == nil {
			nr = n
		}
		if reg.cols == nil {
			nc = n
		}
		reg.set = map[coord]bool{}
		for r := 0; r < nr; r++ {
			for c := 0; c < nc; c++ {
				reg.set[reg.at(r, c)] = true
			}
		}
	}
	return regions
}

func TestMaskSemanticsMatrixAllVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	plus := func(a, b float64) float64 { return a + b }
	for trial := 0; trial < 12; trial++ {
		n := 6 + rng.Intn(8)
		A := randMatrix(rng, n, n, 0.35)
		B := randMatrix(rng, n, n, 0.35)
		// Mask with some explicit zeros so valued != structural.
		M := randMatrix(rng, n, n, 0.4)
		mr, mc, mv := M.ExtractTuples()
		for k := range mv {
			if rng.Float64() < 0.3 {
				mv[k] = 0
			}
		}
		M, _ = MatrixFromTuples(n, n, mr, mc, mv, nil)
		M = maskIn(M, allFormats[trial%3])
		mSet := denseOf(M)
		mExists := func(p coord) bool { _, ok := mSet[p]; return ok }

		// Unmasked product = the "t" of the model.
		tFull := MustMatrix[float64](n, n)
		if err := MxM(tFull, NoMask, nil, PlusTimes[float64](), A, B, nil); err != nil {
			t.Fatal(err)
		}
		tMap := denseOf(tFull)

		cInit := randMatrix(rng, n, n, 0.3)
		cMap := denseOf(cInit)

		// The element-wise operations go through the same tail; their
		// operands and output rotate through the storage formats.
		Af, Bf := inFormat(A, allFormats[trial%3]), inFormat(B, allFormats[trial/3%3])
		addMap, multMap := unionAndIntersection(denseOf(A), denseOf(B))
		regions := assignRegions(rng, n)
		cDense := inFormat(randMatrix(rng, n, n, 1), FormatFull)
		// Apply, select, a gather with a repeated column and the dot
		// product: their T, unmasked.
		negMap, geMap, gatherMap := map[coord]float64{}, map[coord]float64{}, map[coord]float64{}
		for p, x := range denseOf(A) {
			negMap[p] = -x
			if x >= 5 {
				geMap[p] = x
			}
		}
		cols := rng.Perm(n)
		cols[n-1] = cols[0]
		for p, x := range denseOf(A) {
			for oc, sc := range cols {
				if sc == p.j {
					gatherMap[coord{p.i, oc}] = x
				}
			}
		}
		dotMap := naiveMxM(A, NewTranspose(B))

		for _, comp := range []bool{false, true} {
			for _, structural := range []bool{false, true} {
				for _, replace := range []bool{false, true} {
					for _, withAccum := range []bool{false, true} {
						mask := MaskOf(M)
						if structural {
							mask = mask.Structure()
						}
						if comp {
							mask = mask.Not()
						}
						var desc *Descriptor
						if replace {
							desc = DescR
						}
						var acc func(float64, float64) float64
						if withAccum {
							acc = plus
						}
						C := cInit.Dup()
						if err := MxM(C, mask, acc, PlusTimes[float64](), A, B, desc); err != nil {
							t.Fatal(err)
						}
						want := modelMaskAccum(cMap, tMap, mSet, mExists,
							comp, structural, replace, withAccum, nil)
						label := "mxm"
						if comp {
							label += " comp"
						}
						if structural {
							label += " struct"
						}
						if replace {
							label += " replace"
						}
						if withAccum {
							label += " accum"
						}
						matricesEqual(t, C, want, label)

						// An empty C, where C becomes t for either replace
						// value; one holding only a pending insert is not
						// empty.
						for _, pend := range []bool{false, true} {
							C, c0 := MustMatrix[float64](n, n), map[coord]float64{}
							if pend {
								if err := C.SetElement(5, 0, n-1); err != nil {
									t.Fatal(err)
								}
								c0[coord{0, n - 1}] = 5
							}
							if err := MxM(C, mask, acc, PlusTimes[float64](), A, B, desc); err != nil {
								t.Fatal(err)
							}
							matricesEqual(t, C, modelMaskAccum(c0, tMap, mSet, mExists,
								comp, structural, replace, withAccum, nil), label+" into empty C, pending "+fmt.Sprint(pend))
						}

						C = inFormat(cInit, allFormats[(trial+1)%3])
						if err := EWiseAdd(C, mask, acc, AddOp(PlusOp[float64]()), Af, Bf, desc); err != nil {
							t.Fatal(err)
						}
						matricesEqual(t, C, modelMaskAccum(cMap, addMap, mSet, mExists,
							comp, structural, replace, withAccum, nil), "eWiseAdd"+label[3:])
						C = inFormat(cInit, allFormats[(trial+1)%3])
						if err := EWiseMult(C, mask, acc, TimesOp[float64](), Af, Bf, desc); err != nil {
							t.Fatal(err)
						}
						matricesEqual(t, C, modelMaskAccum(cMap, multMap, mSet, mExists,
							comp, structural, replace, withAccum, nil), "eWiseMult"+label[3:])

						// Assign is the same tail with a region: C rotates
						// through sparse, bitmap and full, one format a region.
						for k, reg := range regions {
							c0 := cDense
							if f := allFormats[(trial+k)%3]; f != FormatFull {
								c0 = inFormat(cInit, f)
							}
							c0Map := denseOf(c0)
							C = c0.Dup()
							if err := AssignMatrixScalar(C, mask, acc, 3, reg.rows, reg.cols, desc); err != nil {
								t.Fatal(err)
							}
							matricesEqual(t, C, modelMaskAccum(c0Map, reg.scalarT(3), mSet, mExists,
								comp, structural, replace, withAccum, reg.set), "assign scalar "+reg.name+label[3:])
						}

						dotDesc := &Descriptor{Replace: replace, TranB: true}
						for name, c := range map[string]struct {
							t   map[coord]float64
							run func(C *Matrix[float64]) error
						}{
							"apply":   {negMap, func(C *Matrix[float64]) error { return Apply(C, mask, acc, AInvOp[float64](), Af, desc) }},
							"select":  {geMap, func(C *Matrix[float64]) error { return Select(C, mask, acc, ValueGE[float64](), Af, 5, desc) }},
							"extract": {gatherMap, func(C *Matrix[float64]) error { return ExtractSubmatrix(C, mask, acc, Af, All, cols, desc) }},
							"dot mxm": {dotMap, func(C *Matrix[float64]) error { return MxM(C, mask, acc, PlusTimes[float64](), Af, Bf, dotDesc) }},
						} {
							C = inFormat(cInit, allFormats[(trial+1)%3])
							if err := c.run(C); err != nil {
								t.Fatal(err)
							}
							matricesEqual(t, C, modelMaskAccum(cMap, c.t, mSet, mExists,
								comp, structural, replace, withAccum, nil), name+label[3:])
						}
					}
				}
			}
		}
	}
}

func TestMaskSemanticsVectorAllVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	plus := func(a, b float64) float64 { return a + b }
	for trial := 0; trial < 12; trial++ {
		n := 8 + rng.Intn(12)
		A := randMatrix(rng, n, n, 0.35)
		u := randVector(rng, n, 0.5)
		m := randVector(rng, n, 0.5)
		mi, mv := m.ExtractTuples()
		for k := range mv {
			if rng.Float64() < 0.3 {
				mv[k] = 0
			}
		}
		m, _ = VectorFromTuples(n, mi, mv, nil)
		m = (*Vector[float64])(maskIn(m.asRow(), allFormats[trial%3]))
		mSet := vdenseOf(m)
		mExists := func(p coord) bool { _, ok := mSet[p.i]; return ok }

		tFull := MustVector[float64](n)
		if err := MxV(tFull, NoVMask, nil, PlusTimes[float64](), A, u, nil); err != nil {
			t.Fatal(err)
		}
		tMap := vdenseOf(tFull)
		wInit := randVector(rng, n, 0.4)
		wMap := vdenseOf(wInit)
		v := randVector(rng, n, 0.5)
		uf, vf := vecInFormat(u, allFormats[trial%3]), vecInFormat(v, allFormats[trial/3%3])

		asCoord := func(mm map[int]float64) map[coord]float64 {
			out := map[coord]float64{}
			for i, x := range mm {
				out[coord{i, 0}] = x
			}
			return out
		}
		mCoord := asCoord(mSet)
		// The T of the product by A from the left, the row sums, and of
		// the assigns and the gather through a list with a repeat.
		uMap, aMap := vdenseOf(u), denseOf(A)
		vxmMap, sumMap := map[coord]float64{}, map[coord]float64{}
		for p, x := range aMap {
			if y, ok := uMap[p.i]; ok {
				vxmMap[coord{p.j, 0}] += y * x
			}
			sumMap[coord{p.i, 0}] += x
		}
		idx := rng.Perm(n)
		idx[n-1] = idx[0]
		idxSet, scalarAll, scalarIdx, gather := map[coord]bool{}, map[coord]float64{}, map[coord]float64{}, map[coord]float64{}
		for k, i := range idx {
			idxSet[coord{i, 0}], scalarIdx[coord{i, 0}] = true, 3
			if x, ok := uMap[i]; ok {
				gather[coord{k, 0}] = x
			}
		}
		for i := 0; i < n; i++ {
			scalarAll[coord{i, 0}] = 3
		}
		// The T of the column gather through the list, and of the three
		// pull loops of fastpath.go over a bitmap or a full u.
		j0, colMap := trial%n, map[coord]float64{}
		for k, i := range idx {
			if x, ok := aMap[coord{i, j0}]; ok {
				colMap[coord{k, 0}] = x
			}
		}
		uFast := vecInFormat(u, FormatBitmap)
		if trial%2 == 1 {
			uFast = DenseVector(n, 1.0)
			for i, x := range uMap {
				if err := uFast.SetElement(x, i); err != nil {
					t.Fatal(err)
				}
			}
		}
		uFastMap, uFastI := vdenseOf(uFast), castVector[int64](uFast)
		plusSecondMap, minSecondMap, pairMap := map[coord]float64{}, map[coord]float64{}, map[coord]float64{}
		for p := range aMap {
			if y, ok := uFastMap[p.j]; ok {
				c := coord{p.i, 0}
				plusSecondMap[c] += y
				pairMap[c]++
				if x, seen := minSecondMap[c]; !seen || y < x {
					minSecondMap[c] = y
				}
			}
		}
		// u(k) lands at idx[k]; at the repeated index the accumulator
		// combines the two, or the later one wins.
		scatter := func(accum bool) map[coord]float64 {
			out := map[coord]float64{}
			for k, i := range idx {
				x, ok := uMap[k]
				if !ok {
					continue
				}
				if y, seen := out[coord{i, 0}]; seen && accum {
					x += y
				}
				out[coord{i, 0}] = x
			}
			return out
		}

		for _, comp := range []bool{false, true} {
			for _, structural := range []bool{false, true} {
				for _, replace := range []bool{false, true} {
					for _, withAccum := range []bool{false, true} {
						mask := VMaskOf(m)
						if structural {
							mask = mask.Structure()
						}
						if comp {
							mask = mask.Not()
						}
						var desc *Descriptor
						if replace {
							desc = DescR
						}
						var acc func(float64, float64) float64
						var accI func(int64, int64) int64
						if withAccum {
							acc, accI = plus, func(a, b int64) int64 { return a + b }
						}
						w := wInit.Dup()
						if err := MxV(w, mask, acc, PlusTimes[float64](), A, u, desc); err != nil {
							t.Fatal(err)
						}
						wantC := modelMaskAccum(asCoord(wMap), asCoord(tMap),
							mCoord, mExists, comp, structural, replace, withAccum, nil)
						want := map[int]float64{}
						for p, x := range wantC {
							want[p.i] = x
						}
						label := "mxv masked"
						if comp {
							label += " comp"
						}
						if structural {
							label += " struct"
						}
						if replace {
							label += " replace"
						}
						if withAccum {
							label += " accum"
						}
						vectorsEqual(t, w, want, label)

						// Element-wise, apply and select through the same
						// tail, operands and output rotating through the
						// storage formats.
						addMap, multMap := unionAndIntersection(asCoord(vdenseOf(u)), asCoord(vdenseOf(v)))
						negMap, geMap := map[coord]float64{}, map[coord]float64{}
						for i, x := range vdenseOf(u) {
							negMap[coord{i, 0}] = -x
							if x >= 5 {
								geMap[coord{i, 0}] = x
							}
						}
						for name, c := range map[string]struct {
							t      map[coord]float64
							run    func(w *Vector[float64]) error
							region map[coord]bool
						}{
							"eWiseAddV":  {addMap, func(w *Vector[float64]) error { return EWiseAddV(w, mask, acc, PlusOp[float64](), uf, vf, desc) }, nil},
							"eWiseMultV": {multMap, func(w *Vector[float64]) error { return EWiseMultV(w, mask, acc, TimesOp[float64](), uf, vf, desc) }, nil},
							"applyV":     {negMap, func(w *Vector[float64]) error { return ApplyV(w, mask, acc, AInvOp[float64](), uf, desc) }, nil},
							"selectV":    {geMap, func(w *Vector[float64]) error { return SelectV(w, mask, acc, ValueGE[float64](), uf, 5, desc) }, nil},
							"vxm":        {vxmMap, func(w *Vector[float64]) error { return VxM(w, mask, acc, PlusTimes[float64](), uf, A, desc) }, nil},
							"assign all": {asCoord(uMap), func(w *Vector[float64]) error { return AssignVector(w, mask, acc, uf, All, desc) }, nil},
							"assign dup": {scatter(withAccum), func(w *Vector[float64]) error { return AssignVector(w, mask, acc, uf, idx, desc) }, idxSet},
							"assign scalar all": {scalarAll, func(w *Vector[float64]) error {
								return AssignVectorScalar(w, mask, acc, 3, All, desc)
							}, nil},
							"assign scalar dup": {scalarIdx, func(w *Vector[float64]) error {
								return AssignVectorScalar(w, mask, acc, 3, idx, desc)
							}, idxSet},
							"extract dup": {gather, func(w *Vector[float64]) error { return ExtractSubvector(w, mask, acc, uf, idx, desc) }, nil},
							"reduce": {sumMap, func(w *Vector[float64]) error {
								return ReduceMatrixToVector(w, mask, acc, PlusMonoid[float64](), A, desc)
							}, nil},
							"extract column": {colMap, func(w *Vector[float64]) error { return ExtractColumn(w, mask, acc, A, idx, j0, desc) }, nil},
							"pull plus.second": {plusSecondMap, func(w *Vector[float64]) error {
								return MxV(w, mask, acc, PlusSecond[float64, float64](), A, uFast, desc)
							}, nil},
							"pull min.second": {minSecondMap, func(w *Vector[float64]) error {
								return intInto(w, func(w *Vector[int64]) error { return MxV(w, mask, accI, MinSecond[float64, int64](), A, uFastI, desc) })
							}, nil},
							"pull plus.pair": {pairMap, func(w *Vector[float64]) error {
								return intInto(w, func(w *Vector[int64]) error {
									return MxV(w, mask, accI, PlusPair[float64, int64, int64](), A, uFastI, desc)
								})
							}, nil},
						} {
							w := vecInFormat(wInit, allFormats[(trial+1)%3])
							if err := c.run(w); err != nil {
								t.Fatal(err)
							}
							want := map[int]float64{}
							for p, x := range modelMaskAccum(asCoord(wMap), c.t, mCoord, mExists, comp, structural, replace, withAccum, c.region) {
								want[p.i] = x
							}
							vectorsEqual(t, w, want, name+label[3:])
						}
					}
				}
			}
		}
	}
}

// castVector converts a vector of small integers between float64 and
// int64, keeping its format, so that a test's float64 operands can feed
// the int64 pull loops.
func castVector[TO, FROM int64 | float64](v *Vector[FROM]) *Vector[TO] {
	idx, vals := v.ExtractTuples()
	out := make([]TO, len(vals))
	for k, x := range vals {
		out[k] = TO(x)
	}
	c, err := VectorFromTuples(v.Size(), idx, out, nil)
	if err != nil {
		panic(err)
	}
	c.ConvertTo(v.Format())
	return c
}

// intInto runs an int64 call on an int64 copy of w and leaves its result
// in w.
func intInto(w *Vector[float64], call func(w *Vector[int64]) error) error {
	wi := castVector[int64](w)
	err := call(wi)
	*w = *castVector[float64](wi)
	return err
}

// maskIn returns the mask source m in format f; toward full, the positions
// m lacks are filled with explicit zeros, which a valued mask skips and a
// structural one takes.
func maskIn(m *Matrix[float64], f Format) *Matrix[float64] {
	c := m.Dup()
	if f == FormatFull {
		nr, nc := c.Dims()
		for i := 0; i < nr; i++ {
			for j := 0; j < nc; j++ {
				if _, err := c.ExtractElement(i, j); err != nil {
					if err := c.SetElement(0, i, j); err != nil {
						panic(err)
					}
				}
			}
		}
	}
	c.ConvertTo(f)
	return c
}

func TestMaskPartitionProperty(t *testing.T) {
	// The entries of C⟨s(M)⟩=T and C⟨¬s(M)⟩=T (both replace, empty C)
	// partition the entries of the unmasked T.
	rng := rand.New(rand.NewSource(203))
	for trial := 0; trial < 10; trial++ {
		n := 6 + rng.Intn(10)
		A := randMatrix(rng, n, n, 0.4)
		B := randMatrix(rng, n, n, 0.4)
		M := randMatrix(rng, n, n, 0.4)
		full := MustMatrix[float64](n, n)
		if err := MxM(full, NoMask, nil, PlusTimes[float64](), A, B, nil); err != nil {
			t.Fatal(err)
		}
		inside := MustMatrix[float64](n, n)
		if err := MxM(inside, StructMaskOf(M), nil, PlusTimes[float64](), A, B, DescR); err != nil {
			t.Fatal(err)
		}
		outside := MustMatrix[float64](n, n)
		if err := MxM(outside, StructMaskOf(M).Not(), nil, PlusTimes[float64](), A, B, DescR); err != nil {
			t.Fatal(err)
		}
		if inside.NVals()+outside.NVals() != full.NVals() {
			t.Fatalf("partition sizes: %d + %d != %d",
				inside.NVals(), outside.NVals(), full.NVals())
		}
		fullMap := denseOf(full)
		inMap := denseOf(inside)
		outMap := denseOf(outside)
		for p, x := range fullMap {
			iv, iok := inMap[p]
			ov, ook := outMap[p]
			if iok == ook {
				t.Fatalf("entry %v in both or neither partition", p)
			}
			got := iv
			if ook {
				got = ov
			}
			if got != x {
				t.Fatalf("entry %v value %v, want %v", p, got, x)
			}
		}
	}
}

func TestEmptyMaskMeansNothingComputed(t *testing.T) {
	rng := rand.New(rand.NewSource(204))
	n := 8
	A := randMatrix(rng, n, n, 0.5)
	empty := MustMatrix[bool](n, n)
	C := randMatrix(rng, n, n, 0.3)
	before := denseOf(C)
	// Merge semantics: nothing allowed, C unchanged.
	if err := MxM(C, StructMaskOf(empty), nil, PlusTimes[float64](), A, A, nil); err != nil {
		t.Fatal(err)
	}
	matricesEqual(t, C, before, "empty mask merge keeps C")
	// Replace semantics: everything annihilated.
	if err := MxM(C, StructMaskOf(empty), nil, PlusTimes[float64](), A, A, DescR); err != nil {
		t.Fatal(err)
	}
	if C.NVals() != 0 {
		t.Fatalf("empty mask replace left %d entries", C.NVals())
	}
}

// TestMaskSemanticsParallelMerge checks the write-back where it fans out:
// every case above has fewer rows than parallel.Threads splits, so only
// the serial merge meets the model there. A matrix of 4096 rows (C sparse,
// so T is merged as lists, and bitmap, so it is updated in place) and a
// pull product into a vector of length 4096 run under one worker and
// under four.
func TestMaskSemanticsParallelMerge(t *testing.T) {
	defer parallel.SetMaxThreads(parallel.SetMaxThreads(1))
	rng := rand.New(rand.NewSource(205))
	const n, nc = 4096, 4
	plus := func(a, b float64) float64 { return a + b }
	A, B, cInit := randMatrix(rng, n, nc, 0.4), randMatrix(rng, n, nc, 0.4), randMatrix(rng, n, nc, 0.3)
	M := randMatrix(rng, n, nc, 0.4)
	mr, mc, mv := M.ExtractTuples()
	for k := range mv {
		if rng.Float64() < 0.3 {
			mv[k] = 0
		}
	}
	M, _ = MatrixFromTuples(n, nc, mr, mc, mv, nil)
	mSet := denseOf(M)
	mExists := func(p coord) bool { _, ok := mSet[p]; return ok }
	addMap, _ := unionAndIntersection(denseOf(A), denseOf(B))
	cMap := denseOf(cInit)

	// w = A plus.times u, one entry of w a row of A.
	u := randVector(rng, nc, 0.7)
	// Its mask is M's first column.
	mRow := map[coord]float64{}
	for p, x := range mSet {
		if p.j == 0 {
			mRow[coord{p.i, 0}] = x
		}
	}
	var mi2 []int
	var mv2 []float64
	for p, x := range mRow {
		mi2, mv2 = append(mi2, p.i), append(mv2, x)
	}
	m, _ := VectorFromTuples(n, mi2, mv2, nil)
	mRowExists := func(p coord) bool { _, ok := mRow[p]; return ok }
	tPull := map[coord]float64{}
	for p, x := range denseOf(A) {
		if y, ok := vdenseOf(u)[p.j]; ok {
			tPull[coord{p.i, 0}] += x * y
		}
	}
	w0 := randVector(rng, n, 0.3)
	w0Map := map[coord]float64{}
	for i, x := range vdenseOf(w0) {
		w0Map[coord{i, 0}] = x
	}

	for _, threads := range []int{1, 4} {
		parallel.SetMaxThreads(threads)
		for k := 0; k < 16; k++ {
			comp, structural, replace, withAccum := k&1 != 0, k&2 != 0, k&4 != 0, k&8 != 0
			mask, vmask := MaskOf(M), VMaskOf(m)
			if structural {
				mask, vmask = mask.Structure(), vmask.Structure()
			}
			if comp {
				mask, vmask = mask.Not(), vmask.Not()
			}
			desc := &Descriptor{Replace: replace}
			var acc func(float64, float64) float64
			if withAccum {
				acc = plus
			}
			label := fmt.Sprintf("threads %d comp %v struct %v replace %v accum %v", threads, comp, structural, replace, withAccum)
			for _, f := range []Format{FormatSparse, FormatBitmap} {
				C := inFormat(cInit, f)
				if err := EWiseAdd(C, mask, acc, AddOp(PlusOp[float64]()), inFormat(A, f), B, desc); err != nil {
					t.Fatal(err)
				}
				matricesEqual(t, C, modelMaskAccum(cMap, addMap, mSet, mExists, comp, structural, replace, withAccum, nil),
					fmt.Sprintf("eWiseAdd into %v, %s", f, label))
			}
			w := w0.Dup()
			if err := MxV(w, vmask, acc, PlusTimes[float64](), A, u, desc); err != nil {
				t.Fatal(err)
			}
			want := map[int]float64{}
			for p, x := range modelMaskAccum(w0Map, tPull, mRow, mRowExists, comp, structural, replace, withAccum, nil) {
				want[p.i] = x
			}
			vectorsEqual(t, w, want, "mxv, "+label)
		}
	}
	t.Run("one row cut by columns", oneRowCut)
}

// oneRowCut runs the kernels whose one-row result run cuts by columns —
// the generic pull, the three pull loops of fastpath.go, the row reduce,
// the column gather — and the push, which it never cuts, into a sparse and
// a bitmap w of length 4096, with mask, operand and output entries on each
// side of every piece boundary. Under one worker and four, each result
// must match the model, and the two must build identical index and value
// arrays.
func oneRowCut(t *testing.T) {
	defer parallel.SetMaxThreads(parallel.SetMaxThreads(1))
	rng := rand.New(rand.NewSource(206))
	const n, pieces, j0 = 4096, 4, 7
	plus := func(a, b float64) float64 { return a + b }
	plusI := func(a, b int64) int64 { return a + b }
	edge := map[int]bool{} // the two sides of every boundary of four pieces
	for b := 0; b <= n; b += n / pieces {
		edge[max(b-1, 0)], edge[min(b, n-1)] = true, true
	}
	vec := func(density float64, value func(i int) float64) *Vector[float64] {
		var idx []int
		var vals []float64
		for i := 0; i < n; i++ {
			if edge[i] || rng.Float64() < density {
				idx, vals = append(idx, i), append(vals, value(i))
			}
		}
		v, err := VectorFromTuples(n, idx, vals, nil)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	digit := func(int) float64 { return float64(1 + rng.Intn(9)) }
	u, w0 := vec(0.5, digit), vec(0.3, digit)
	m := vec(0.4, func(i int) float64 { return float64(rng.Intn(3) % 2) }) // a third explicit zeros
	// S: four random entries a row, and column j0 and the columns on each
	// side of the boundaries in the boundary rows and every third row.
	var sr, sc []int
	var sv []float64
	for i := 0; i < n; i++ {
		cols := []int{rng.Intn(n), rng.Intn(n), rng.Intn(n), rng.Intn(n)}
		if edge[i] || i%3 == 0 {
			cols = append(cols, j0, n-1-i, (i+n/pieces)%n)
		}
		for _, j := range cols {
			sr, sc, sv = append(sr, i), append(sc, j), append(sv, digit(0))
		}
	}
	S, err := MatrixFromTuples(n, n, sr, sc, sv, plus)
	if err != nil {
		t.Fatal(err)
	}
	uB := vecInFormat(u, FormatBitmap)
	uBI := castVector[int64](uB)
	uMap, sMap := vdenseOf(u), denseOf(S)
	tPull, tPush, tSum, tCol := map[coord]float64{}, map[coord]float64{}, map[coord]float64{}, map[coord]float64{}
	tPlusSecond, tMinSecond, tPair := map[coord]float64{}, map[coord]float64{}, map[coord]float64{}
	for p, x := range sMap {
		r := coord{p.i, 0}
		tSum[r] += x
		if p.j == j0 {
			tCol[r] = x
		}
		if y, ok := uMap[p.i]; ok {
			tPush[coord{p.j, 0}] += y * x
		}
		if y, ok := uMap[p.j]; ok {
			tPull[r] += x * y
			tPlusSecond[r] += y
			tPair[r]++
			if z, seen := tMinSecond[r]; !seen || y < z {
				tMinSecond[r] = y
			}
		}
	}
	mMap, w0Map := map[coord]float64{}, map[coord]float64{}
	for i, x := range vdenseOf(m) {
		mMap[coord{i, 0}] = x
	}
	for i, x := range vdenseOf(w0) {
		w0Map[coord{i, 0}] = x
	}
	mExists := func(p coord) bool { _, ok := mMap[p]; return ok }

	type result struct {
		idx  []int
		vals []float64
	}
	serial, wants := map[string]result{}, map[string]map[int]float64{}
	for _, threads := range []int{1, pieces} {
		parallel.SetMaxThreads(threads)
		if got := parallel.Threads(n); got != threads {
			t.Fatalf("Threads(%d) = %d under SetMaxThreads(%d)", n, got, threads)
		}
		for k := 0; k < 16; k++ {
			comp, structural, replace, withAccum := k&1 != 0, k&2 != 0, k&4 != 0, k&8 != 0
			mask := VMaskOf(m)
			if structural {
				mask = mask.Structure()
			}
			if comp {
				mask = mask.Not()
			}
			desc := &Descriptor{Replace: replace}
			var acc func(float64, float64) float64
			var accI func(int64, int64) int64
			if withAccum {
				acc, accI = plus, plusI
			}
			label := fmt.Sprintf("comp %v struct %v replace %v accum %v", comp, structural, replace, withAccum)
			calls := []struct {
				name string
				t    map[coord]float64
				run  func(w *Vector[float64]) error
			}{
				{"pull plus.second", tPlusSecond, func(w *Vector[float64]) error {
					return MxV(w, mask, acc, PlusSecond[float64, float64](), S, uB, desc)
				}},
				{"pull min.second", tMinSecond, func(w *Vector[float64]) error {
					return intInto(w, func(w *Vector[int64]) error { return MxV(w, mask, accI, MinSecond[float64, int64](), S, uBI, desc) })
				}},
				{"pull plus.pair", tPair, func(w *Vector[float64]) error {
					return intInto(w, func(w *Vector[int64]) error {
						return MxV(w, mask, accI, PlusPair[float64, int64, int64](), S, uBI, desc)
					})
				}},
				{"pull plus.times", tPull, func(w *Vector[float64]) error { return MxV(w, mask, acc, PlusTimes[float64](), S, u, desc) }},
				{"push plus.times", tPush, func(w *Vector[float64]) error { return VxM(w, mask, acc, PlusTimes[float64](), u, S, desc) }},
				{"row reduce", tSum, func(w *Vector[float64]) error {
					return ReduceMatrixToVector(w, mask, acc, PlusMonoid[float64](), S, desc)
				}},
				{"column gather", tCol, func(w *Vector[float64]) error { return ExtractColumn(w, mask, acc, S, All, j0, desc) }},
			}
			for _, c := range calls {
				want := wants[c.name+label]
				if want == nil {
					want = map[int]float64{}
					for p, x := range modelMaskAccum(w0Map, c.t, mMap, mExists, comp, structural, replace, withAccum, nil) {
						want[p.i] = x
					}
					wants[c.name+label] = want
				}
				for _, f := range []Format{FormatSparse, FormatBitmap} {
					name := fmt.Sprintf("%s into %v, %s", c.name, f, label)
					w := vecInFormat(w0, f)
					if err := c.run(w); err != nil {
						t.Fatal(err)
					}
					vectorsEqual(t, w, want, fmt.Sprintf("threads %d: %s", threads, name))
					idx, vals := w.ExtractTuples()
					if threads == 1 {
						serial[name] = result{idx, vals}
					} else if one := serial[name]; !slices.Equal(one.idx, idx) || !slices.Equal(one.vals, vals) {
						t.Errorf("%s: one worker and four built different arrays", name)
					}
				}
			}
		}
	}
}
