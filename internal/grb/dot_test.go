package grb

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lagraph/internal/parallel"
)

// refRow is one row of a matrix as a sorted column list and its values.
type refRow[T Value] struct {
	idx []int
	val []T
}

// refRows is m by row, read through ExtractTuples (row-major, each row
// sorted by column), whatever m's format.
func refRows[T Value](m *Matrix[T]) []refRow[T] {
	rows, cols, vals := m.ExtractTuples()
	out := make([]refRow[T], m.NRows())
	for p, i := range rows {
		out[i].idx, out[i].val = append(out[i].idx, cols[p]), append(out[i].val, vals[p])
	}
	return out
}

// mergeDot is the dot product of two sparse rows as the merge of their
// sorted column lists, the loop the dot kernel ran before it probed a
// scattered row: the reference every semiring must match bit for bit,
// pairs met in ascending k, any and terminal monoids stopping early.
func mergeDot[TA, TB, TC Value](s Semiring[TA, TB, TC], a refRow[TA], b refRow[TB], i, j int) (TC, bool) {
	var acc TC
	got := false
	for p, q := 0, 0; p < len(a.idx) && q < len(b.idx); {
		switch ka, kb := a.idx[p], b.idx[q]; {
		case ka < kb:
			p++
		case kb < ka:
			q++
		default:
			var x TC
			if s.Mul.PosF != nil {
				x = s.Mul.PosF(i, ka, j)
			} else {
				x = s.Mul.F(a.val[p], b.val[q])
			}
			if got {
				acc = s.Add.F(acc, x)
			} else {
				acc, got = x, true
			}
			if s.Add.IsAny || s.Add.Terminal != nil && acc == *s.Add.Terminal {
				return acc, got
			}
			p++
			q++
		}
	}
	return acc, got
}

// mergeMxM is C⟨M⟩ = A·Bᵀ into an empty C by mergeDot: allowed says which
// positions the mask lets through.
func mergeMxM[TA, TB, TC Value](s Semiring[TA, TB, TC], A *Matrix[TA], B *Matrix[TB], allowed func(i, j int) bool) map[coord]TC {
	ar, br := refRows(A), refRows(B)
	want := map[coord]TC{}
	for i := range ar {
		for j := range br {
			if !allowed(i, j) {
				continue
			}
			if x, ok := mergeDot(s, ar[i], br[j], i, j); ok {
				want[coord{i, j}] = x
			}
		}
	}
	return want
}

// dotOperand is a random nr×nc matrix of density d whose values span many
// magnitudes and signs, so that a float sum taken in another order reads
// differently; with inf, about one entry in eight is ±Inf, so that min and
// max reach their terminals.
func dotOperand(rng *rand.Rand, nr, nc int, d float64, inf bool) *Matrix[float64] {
	var rows, cols []int
	var vals []float64
	for i := 0; i < nr; i++ {
		for j := 0; j < nc; j++ {
			if rng.Float64() >= d {
				continue
			}
			x := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(13)-6))
			if inf && rng.Intn(8) == 0 {
				x = math.Inf(1 - 2*rng.Intn(2))
			}
			rows, cols, vals = append(rows, i), append(cols, j), append(vals, x)
		}
	}
	m, err := MatrixFromTuples(nr, nc, rows, cols, vals, nil)
	if err != nil {
		panic(err)
	}
	return m
}

// sameBits fails unless got holds exactly want, floats compared by their
// bits.
func sameBits[T Value](t *testing.T, got *Matrix[T], want map[coord]T, label string) {
	t.Helper()
	g := denseOf(got)
	if len(g) != len(want) {
		t.Fatalf("%s: %d entries, the merge %d", label, len(g), len(want))
	}
	for p, x := range want {
		y, ok := g[p]
		if f, isF := any(x).(float64); isF {
			if !ok || math.Float64bits(f) != math.Float64bits(any(y).(float64)) {
				t.Fatalf("%s: at %v got %v (present %v), the merge %v", label, p, y, ok, x)
			}
		} else if !ok || y != x {
			t.Fatalf("%s: at %v got %v (present %v), the merge %v", label, p, y, ok, x)
		}
	}
}

// TestMxMDotMatchesMerge holds the dot kernel to the row merge it
// replaced: C⟨M⟩ = A·Bᵀ (DescT1) with both operands sparse (each row of A
// scattered once and probed) and with one or both bitmap, under no mask, a
// structural, a valued and a complemented mask, on plus.times over floats
// of many magnitudes, min.plus and max.times reaching their ±Inf
// terminals, any.secondi, plus.pair and a positional multiplier reading
// (i, k, j), at one worker and at four. Every entry must match bit for bit.
func TestMxMDotMatchesMerge(t *testing.T) {
	defer parallel.SetMaxThreads(parallel.SetMaxThreads(1))
	for _, threads := range []int{1, 4} {
		parallel.SetMaxThreads(threads)
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(300 + seed))
			const nr, nb, nc = 37, 29, 41
			A, B := dotOperand(rng, nr, nc, 0.25, seed%2 == 1), dotOperand(rng, nb, nc, 0.25, seed%2 == 1)
			M := dotOperand(rng, nr, nb, 0.35, false)
			mrows, mcols, _ := M.ExtractTuples()
			for p := range mrows {
				if p%3 == 0 { // explicit zeros: present to s(M), not to M
					if err := M.SetElement(0, mrows[p], mcols[p]); err != nil {
						t.Fatal(err)
					}
				}
			}
			mv := denseOf(M)
			masks := []struct {
				name    string
				mask    Mask
				allowed func(i, j int) bool
			}{
				{"no mask", NoMask, func(i, j int) bool { return true }},
				{"s(M)", StructMaskOf(M), func(i, j int) bool { _, ok := mv[coord{i, j}]; return ok }},
				{"M", MaskOf(M), func(i, j int) bool { return mv[coord{i, j}] != 0 }},
				{"¬s(M)", StructMaskOf(M).Not(), func(i, j int) bool { _, ok := mv[coord{i, j}]; return !ok }},
			}
			for _, f := range [][2]Format{{FormatSparse, FormatSparse}, {FormatBitmap, FormatSparse}, {FormatSparse, FormatBitmap}} {
				Af, Bf := inFormat(A, f[0]), inFormat(B, f[1])
				for _, mk := range masks {
					label := func(sr string) string {
						return sr + " " + mk.name + " " + f[0].String() + "·" + f[1].String() + "ᵀ"
					}
					checkDot(t, label("plus.times"), PlusTimes[float64](), Af, Bf, mk.mask, mk.allowed)
					checkDot(t, label("min.plus"), MinPlus[float64](), Af, Bf, mk.mask, mk.allowed)
					checkDot(t, label("max.times"), Semiring[float64, float64, float64]{Name: "max.times", Add: MaxMonoid[float64](), Mul: TimesOp[float64]()}, Af, Bf, mk.mask, mk.allowed)
					checkDot(t, label("any.secondi"), AnySecondI[float64, float64, int64](), Af, Bf, mk.mask, mk.allowed)
					checkDot(t, label("plus.pair"), PlusPair[float64, float64, int64](), Af, Bf, mk.mask, mk.allowed)
					checkDot(t, label("plus.ikj"), Semiring[float64, float64, int64]{Name: "plus.ikj", Add: PlusMonoid[int64](),
						Mul: BinaryOp[float64, float64, int64]{Name: "ikj", PosF: func(i, k, j int) int64 { return int64(i*10000 + k*100 + j) }}}, Af, Bf, mk.mask, mk.allowed)
				}
			}
		}
	}
}

func checkDot[TC Value](t *testing.T, label string, s Semiring[float64, float64, TC], A, B *Matrix[float64], mask Mask, allowed func(i, j int) bool) {
	t.Helper()
	C := MustMatrix[TC](A.NRows(), B.NRows())
	if err := MxM(C, mask, nil, s, A, B, DescT1); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	sameBits(t, C, mergeMxM(s, A, B, allowed), label)
}

// TestMxMDotPlusPairMisses: plus.pair into int64 over two sparse operands
// counts |A(i,:) ∩ B(j,:)| and stores nothing where the rows miss — a
// B(j,:) wholly below A(i,:)'s first column, wholly above its last,
// interleaved with it, or empty, and an empty A(i,:) — under no mask, a
// full structural mask, a valued mask of explicit zeros and a complemented
// one, at one worker and at four.
func TestMxMDotPlusPairMisses(t *testing.T) {
	defer parallel.SetMaxThreads(parallel.SetMaxThreads(1))
	rowsOf := func(nc int, rows [][]int) *Matrix[float64] {
		var ri, ci []int
		for i, r := range rows {
			for _, j := range r {
				ri, ci = append(ri, i), append(ci, j)
			}
		}
		vals := make([]float64, len(ri))
		for k := range vals {
			vals[k] = float64(k + 1)
		}
		return mustFromTuples(t, len(rows), nc, ri, ci, vals)
	}
	A := rowsOf(12, [][]int{{2, 3, 4}, {5, 6, 7}, {}, {0, 11}})
	B := rowsOf(12, [][]int{{0, 1}, {8, 9, 10}, {3, 5, 7}, {1, 2, 3, 4, 6, 11}, {}})
	counts := map[coord]int64{{0, 2}: 1, {0, 3}: 3, {1, 2}: 2, {1, 3}: 1, {3, 0}: 1, {3, 3}: 1}
	full := MustMatrix[float64](4, 5)
	zeros := MustMatrix[float64](4, 5)
	for i := 0; i < 4; i++ {
		for j := 0; j < 5; j++ {
			if err := cmp.Or(full.SetElement(1, i, j), zeros.SetElement(float64(j%2), i, j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	masks := []struct {
		name    string
		mask    Mask
		allowed func(i, j int) bool
	}{
		{"no mask", NoMask, func(i, j int) bool { return true }},
		{"s(M) full", StructMaskOf(full), func(i, j int) bool { return true }},
		{"M with zeros", MaskOf(zeros), func(i, j int) bool { return j%2 == 1 }},
		{"¬s(M) of zeros", StructMaskOf(zeros).Not(), func(i, j int) bool { return false }},
		{"¬M with zeros", MaskOf(zeros).Not(), func(i, j int) bool { return j%2 == 0 }},
	}
	for _, threads := range []int{1, 4} {
		parallel.SetMaxThreads(threads)
		for _, mk := range masks {
			C := MustMatrix[int64](4, 5)
			if err := MxM(C, mk.mask, nil, PlusPair[float64, float64, int64](), A, B, DescT1); err != nil {
				t.Fatal(err)
			}
			want := map[coord]int64{}
			for p, c := range counts {
				if mk.allowed(p.i, p.j) {
					want[p] = c
				}
			}
			label := fmt.Sprintf("%s, %d workers", mk.name, threads)
			sameBits(t, C, want, label)
			sameBits(t, C, mergeMxM(PlusPair[float64, float64, int64](), A, B, mk.allowed), label+" (merge)")
		}
	}
}
