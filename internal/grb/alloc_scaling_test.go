package grb

import (
	"runtime"
	"runtime/debug"
	"testing"

	"lagraph/internal/gen"
	"lagraph/internal/parallel"
)

// tinyFrontier holds the operands of one BC level and one SSSP round on
// an n-vertex ring when the frontier has 16 entries: every call below
// should cost what the 16 entries cost, whatever n is.
type tinyFrontier struct {
	n, ns  int
	adj    *Matrix[float64] // ring adjacency, two entries a row
	front  *Matrix[float64] // F: ns×n sparse, 16 entries where P has none
	back   *Matrix[float64] // W: ns×n sparse, 16 entries where P has one
	levels *Matrix[bool]    // S[i]: W's pattern as a structural mask
	paths  *Matrix[float64] // P: ns×n bitmap, the even columns present
	deps   *Matrix[float64] // B: ns×n full
	dist   *Vector[float64] // t: full, 16 entries inside the bucket [0, 100)
	req    *Vector[float64] // tReq: sparse, the same 16 positions
	lower  *Vector[bool]    // tless: sparse valued mask over them
}

func newTinyFrontier(t *testing.T, n int) *tinyFrontier {
	t.Helper()
	const ns, k = 4, 16
	tf := &tinyFrontier{n: n, ns: ns}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	rows, cols := make([]int, 0, 2*n), make([]int, 0, 2*n)
	for i := 0; i < n; i++ {
		rows, cols = append(rows, i, i), append(cols, (i+1)%n, (i+n-1)%n)
	}
	ones := make([]float64, 2*n)
	for i := range ones {
		ones[i] = 1
	}
	var err error
	tf.adj, err = MatrixFromTuples(n, n, rows, cols, ones, nil)
	must(err)

	fr, even, odd := make([]int, k), make([]int, k), make([]int, k)
	fv, fb := make([]float64, k), make([]bool, k)
	for e := 0; e < k; e++ {
		fr[e], even[e], odd[e], fv[e], fb[e] = e%ns, e*(n/k), e*(n/k)+1, float64(e+1), true
	}
	idx := odd
	tf.front, err = MatrixFromTuples(ns, n, fr, odd, fv, nil)
	must(err)
	tf.back, err = MatrixFromTuples(ns, n, fr, even, fv, nil)
	must(err)
	tf.levels, err = MatrixFromTuples(ns, n, fr, even, fb, nil)
	must(err)

	tf.paths = MustMatrix[float64](ns, n)
	tf.paths.ConvertTo(FormatBitmap)
	for i := 0; i < ns; i++ {
		for j := 0; j < n; j += 2 {
			must(tf.paths.SetElement(1, i, j))
		}
	}
	tf.deps = MustMatrix[float64](ns, n)
	must(AssignMatrixScalar(tf.deps, NoMask, nil, 1.0, All, All, nil))

	tf.dist = DenseVector(n, 1e9)
	for e, i := range idx {
		must(tf.dist.SetElement(float64(10+e), i))
	}
	tf.req, err = VectorFromTuples(n, idx, fv, nil)
	must(err)
	tf.lower, err = VectorFromTuples(n, idx, fb, nil)
	must(err)
	return tf
}

// calls lists one call per row of the driver table in the package doc,
// plus a tiny push VxM. Each closure leaves its operands as it found them
// (in format and size, not in value), so it can run repeatedly.
func (tf *tinyFrontier) calls() map[string]func() error {
	n, ns := tf.n, tf.ns
	plus := func(a, b float64) float64 { return a + b }
	less := BinaryOp[float64, float64, bool]{Name: "lt", F: func(a, b float64) bool { return a < b }}
	inBucket := IndexUnaryOp[float64]{Name: "range", F: func(x float64, _, _ int, hi float64) bool { return 0 <= x && x < hi }}
	return map[string]func() error{
		"W⟨s(S),r⟩ = B div∩ P (mask-driven)": func() error {
			return EWiseMult(MustMatrix[float64](ns, n), StructMaskOf(tf.levels), nil, DivOp[float64](), tf.deps, tf.paths, DescR)
		},
		"W ×∩ P (sparse ∩ bitmap)": func() error {
			return EWiseMult(MustMatrix[float64](ns, n), NoMask, nil, TimesOp[float64](), tf.back, tf.paths, nil)
		},
		"tless = tReq <∩ t (sparse ∩ full)": func() error {
			return EWiseMultV(MustVector[bool](n), NoVMask, nil, less, tf.req, tf.dist, nil)
		},
		"B += W ×∩ P (accumulate into full)": func() error {
			return EWiseMult(tf.deps, NoMask, plus, TimesOp[float64](), tf.back, tf.paths, nil)
		},
		"t += tReq (accumulate into full)": func() error {
			return ApplyV(tf.dist, NoVMask, plus, Identity[float64](), tf.req, nil)
		},
		"P = P +∪ F (in place)": func() error {
			return EWiseAdd(tf.paths, NoMask, nil, AddOp(PlusOp[float64]()), tf.paths, tf.front, nil)
		},
		"t = t min∪ tReq (in place)": func() error {
			return EWiseAddV(tf.dist, NoVMask, nil, MinOp[float64](), tf.dist, tf.req, nil)
		},
		"improved⟨tless⟩ = tReq (mask probed)": func() error {
			return ApplyV(MustVector[float64](n), VMaskOf(tf.lower), nil, Identity[float64](), tf.req, nil)
		},
		"b⟨¬s(tless)⟩ = tReq⟨≥ 3⟩ (mask probed)": func() error {
			return SelectV(MustVector[float64](n), StructVMaskOf(tf.lower).Not(), nil, ValueGE[float64](), tf.req, 3, nil)
		},
		"e⟨s(tB)⟩ = true": func() error {
			return AssignVectorScalar(MustVector[bool](n), StructVMaskOf(tf.req), nil, true, All, nil)
		},
		"tB = t⟨lo ≤ t < hi⟩ (one select)": func() error {
			return SelectV(MustVector[float64](n), NoVMask, nil, inBucket, tf.dist, 100, nil)
		},
		"F⟨¬s(P),r⟩ = F plus.first A (saxpy)": func() error {
			return MxM(MustMatrix[float64](ns, n), StructMaskOf(tf.paths).Not(), nil, PlusFirst[float64, float64](), tf.front, tf.adj, DescR)
		},
		"tReq = tB min.plus A (push)": func() error {
			return VxM(MustVector[float64](n), NoVMask, nil, MinPlus[float64](), tf.req, tf.adj, nil)
		},
		"q⟨¬s(t)⟩ = tB min.plus A (push, mask probed)": func() error {
			return VxM(MustVector[float64](n), StructVMaskOf(tf.dist).Not(), nil, MinPlus[float64](), tf.req, tf.adj, nil)
		},
	}
}

// bytesPerCall is the mean TotalAlloc of one call once the pool is warm,
// with the collector off so that it cannot empty the pool in between.
func bytesPerCall(t *testing.T, call func() error) float64 {
	t.Helper()
	const rounds = 8
	for i := 0; i < 2; i++ {
		if err := call(); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		if err := call(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / rounds
}

// TestTinyFrontierCallsDoNotAllocateByN states the property the Road
// kernels need (paper §VI-B): a call whose sparsest participant has 16
// entries allocates the same on 2¹⁰ vertices as on 2¹⁶ — within 2×,
// where allocating by n would show 64×.
func TestTinyFrontierCallsDoNotAllocateByN(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	defer parallel.SetMaxThreads(parallel.SetMaxThreads(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	small, large := newTinyFrontier(t, 1<<10), newTinyFrontier(t, 1<<16)
	largeCalls := large.calls()
	for name, call := range small.calls() {
		s, l := bytesPerCall(t, call), bytesPerCall(t, largeCalls[name])
		if l >= 2*s && l > 0 {
			t.Errorf("%s: %.0f B/call at n=2^10, %.0f B/call at n=2^16 (%.1fx)", name, s, l, l/s)
		}
	}
}

// denseIteration holds one sweep of PageRank (paper Alg. 4) and one round
// of FastSV (Alg. 7) on an n-vertex ring, every vector bitmap or full as it
// is from the second iteration on.
type denseIteration struct {
	n            int
	adj          *Matrix[float64]
	t, r, d, w   *Vector[float64] // d, and so w, lack vertex 0: bitmap
	f, gf, mngf  *Vector[int64]
	dup, changed *Vector[int64]
	x            []int
}

func newDenseIteration(t *testing.T, n int) *denseIteration {
	t.Helper()
	it := &denseIteration{n: n, adj: newTinyFrontier(t, n).adj, x: make([]int, n)}
	it.t, it.r, it.d = DenseVector(n, 1/float64(n)), DenseVector(n, 0.0), DenseVector(n, 2/0.85)
	if err := it.d.RemoveElement(0); err != nil {
		t.Fatal(err)
	}
	it.w = MustVector[float64](n)
	it.f = DenseVector(n, int64(0))
	if err := ApplyV(it.f, NoVMask, nil, RowIndexOp[int64, int64](), it.f, nil); err != nil {
		t.Fatal(err)
	}
	it.gf, it.mngf, it.dup, it.changed = it.f.Dup(), it.f.Dup(), it.f.Dup(), MustVector[int64](n)
	return it
}

type namedCall struct {
	name string
	call func() error
}

// calls lists, in program order, the six grb calls of a PageRank sweep and the seven of a
// FastSV round (plus its dup = gf), each on the outputs the loops keep.
func (it *denseIteration) calls() []namedCall {
	plus := func(a, b float64) float64 { return a + b }
	minI := func(a, b int64) int64 { return min(a, b) }
	return []namedCall{
		{"pr: w = t div∩ d", func() error {
			return EWiseMultV(it.w, NoVMask, nil, DivOp[float64](), it.t, it.d, nil)
		}},
		{"pr: r(:) = teleport", func() error {
			return AssignVectorScalar(it.r, NoVMask, nil, 0.15/float64(it.n), All, nil)
		}},
		{"pr: r += A plus.second w", func() error {
			return MxV(it.r, NoVMask, plus, PlusSecond[float64, float64](), it.adj, it.w, nil)
		}},
		{"pr: t = t −∪ r", func() error {
			return EWiseAddV(it.t, NoVMask, nil, MinusOp[float64](), it.t, it.r, nil)
		}},
		{"pr: t = |t|", func() error { return ApplyV(it.t, NoVMask, nil, AbsOp[float64](), it.t, nil) }},
		{"pr: Σ t", func() error {
			ReduceVectorToScalar(PlusMonoid[float64](), it.t)
			return nil
		}},
		{"cc: mngf min= A min.second gf", func() error {
			return MxV(it.mngf, NoVMask, minI, MinSecond[float64, int64](), it.adj, it.gf, nil)
		}},
		{"cc: f(x) min= mngf", func() error {
			it.f.Iterate(func(i int, v int64) { it.x[i] = int(v) })
			return AssignVector(it.f, NoVMask, minI, it.mngf, it.x, nil)
		}},
		{"cc: f = f min∪ mngf", func() error {
			return EWiseAddV(it.f, NoVMask, nil, MinOp[int64](), it.f, it.mngf, nil)
		}},
		{"cc: f = f min∪ gf", func() error {
			return EWiseAddV(it.f, NoVMask, nil, MinOp[int64](), it.f, it.gf, nil)
		}},
		{"cc: gf = f(x)", func() error {
			it.f.Iterate(func(i int, v int64) { it.x[i] = int(v) })
			return ExtractSubvector(it.gf, NoVMask, nil, it.f, it.x, nil)
		}},
		{"cc: changed = gf ≠∩ dup", func() error {
			return EWiseMultV(it.changed, NoVMask, nil, NEOp[int64, int64](), it.gf, it.dup, nil)
		}},
		{"cc: Σ changed", func() error {
			ReduceVectorToScalar(PlusMonoid[int64](), it.changed)
			return nil
		}},
		{"cc: dup(:) = gf", func() error { return AssignVector(it.dup, NoVMask, nil, it.gf, All, nil) }},
	}
}

// TestDenseVectorCallsDoNotAllocate states the dense-output rule as the
// kernels see it: on warm bitmap/full operands each call of a PageRank
// sweep and of a FastSV round writes into its output's own arrays, so it
// allocates a few headers — under 1 KiB, on 2¹⁰ vertices and on 2¹⁶
// alike — where one temporary of length n would be 8 to 512 KiB. So do a
// generic pull, a row reduce and a masked pull loop accumulated into a
// full w: each emits its entries into w where they land.
func TestDenseVectorCallsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	defer parallel.SetMaxThreads(parallel.SetMaxThreads(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	plus := func(a, b float64) float64 { return a + b }
	for _, n := range []int{1 << 10, 1 << 16} {
		it, w := newDenseIteration(t, n), DenseVector(n, 0.0)
		calls := append(it.calls(),
			namedCall{"w += A plus.times t", func() error {
				return MxV(w, NoVMask, plus, PlusTimes[float64](), it.adj, it.t, nil)
			}},
			namedCall{"w += Σⱼ A(:, j)", func() error {
				return ReduceMatrixToVector(w, NoVMask, plus, PlusMonoid[float64](), it.adj, nil)
			}},
			namedCall{"w⟨d⟩ += A plus.second t", func() error {
				return MxV(w, VMaskOf(it.d), plus, PlusSecond[float64, float64](), it.adj, it.t, nil)
			}})
		for _, c := range calls {
			if b := bytesPerCall(t, c.call); b >= 1<<10 {
				t.Errorf("%s: %.0f B/call at n=%d", c.name, b, n)
			}
		}
		if w.Format() != FormatFull {
			t.Errorf("w turned %v at n=%d", w.Format(), n)
		}
	}
}

// denseLevel holds BC's four-row operands (paper Alg. 6) from its second
// level on, when they are bitmap or full: B full, W and P bitmap with a
// hole each, F a bitmap frontier on the odd columns but one.
type denseLevel struct {
	B, W, P, F *Matrix[float64]
}

func newDenseLevel(t *testing.T, n int) *denseLevel {
	t.Helper()
	const ns = 4
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	lv := &denseLevel{B: MustMatrix[float64](ns, n), W: MustMatrix[float64](ns, n), P: MustMatrix[float64](ns, n), F: MustMatrix[float64](ns, n)}
	must(AssignMatrixScalar(lv.B, NoMask, nil, 1.0, All, All, nil))
	must(AssignMatrixScalar(lv.W, NoMask, nil, -2.0, All, All, nil))
	must(lv.W.RemoveElement(0, 0))
	for _, m := range []*Matrix[float64]{lv.P, lv.F} {
		m.ConvertTo(FormatBitmap)
	}
	for i := 0; i < ns; i++ {
		for j := 0; j < n; j += 2 {
			must(lv.P.SetElement(1, i, j))
			if j+3 < n {
				must(lv.F.SetElement(1, i, j+3))
			}
		}
	}
	return lv
}

// TestDenseMatrixCallsDoNotAllocate is TestDenseVectorCallsDoNotAllocate
// for matrices: on warm bitmap/full operands each of BC's four-row calls
// writes into its output's own arrays — under 1 KiB a call on 2¹⁰ columns
// and on 2¹⁶ alike, where one temporary of the output's size would be 40
// KiB to 2.5 MiB.
func TestDenseMatrixCallsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	defer parallel.SetMaxThreads(parallel.SetMaxThreads(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	plus := func(a, b float64) float64 { return a + b }
	for _, n := range []int{1 << 10, 1 << 16} {
		lv := newDenseLevel(t, n)
		for _, c := range []namedCall{
			{"bc: B(:) = 1", func() error { return AssignMatrixScalar(lv.B, NoMask, nil, 1.0, All, All, nil) }},
			{"bc: B += W ×∩ P", func() error { return EWiseMult(lv.B, NoMask, plus, TimesOp[float64](), lv.W, lv.P, nil) }},
			{"bc: P = P +∪ F", func() error { return EWiseAdd(lv.P, NoMask, nil, AddOp(PlusOp[float64]()), lv.P, lv.F, nil) }},
			{"bc: W = |W|", func() error { return Apply(lv.W, NoMask, nil, AbsOp[float64](), lv.W, nil) }},
		} {
			if b := bytesPerCall(t, c.call); b >= 1<<10 {
				t.Errorf("%s: %.0f B/call at n=%d", c.name, b, n)
			}
		}
		for name, m := range map[string]*Matrix[float64]{"B": lv.B, "W": lv.W, "P": lv.P, "F": lv.F} {
			if m.Format() == FormatSparse {
				t.Errorf("%s turned sparse at n=%d", name, n)
			}
		}
	}
}

// TestVectorStorageCallsDoNotAllocate pins that a vector reaches the storage
// bodies it shares with Matrix without building anything per call: element
// access on every format, NVals, Wait on a finished vector and a conform
// that keeps the format allocate nothing.
func TestVectorStorageCallsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	const n = 1 << 10
	sparse, err := VectorFromTuples(n, []int{3, 70, 500}, []float64{1, 2, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	bitmap, full := DenseVector(n, 1.0), DenseVector(n, 2.0)
	if err := bitmap.RemoveElement(0); err != nil {
		t.Fatal(err)
	}
	vectors := []*Vector[float64]{sparse, bitmap, full}
	formats := []Format{FormatSparse, FormatBitmap, FormatFull}
	extract := func(v *Vector[float64], i int) func() {
		return func() {
			if _, err := v.ExtractElement(i); err != nil {
				t.Fatal(err)
			}
		}
	}
	set := func(v *Vector[float64]) func() {
		return func() {
			if err := v.SetElement(4, 5); err != nil {
				t.Fatal(err)
			}
		}
	}
	calls := []struct {
		name string
		call func()
	}{
		{"ExtractElement on a sparse vector", extract(sparse, 70)},
		{"ExtractElement on a bitmap vector", extract(bitmap, 5)},
		{"ExtractElement on a full vector", extract(full, 5)},
		{"SetElement on a bitmap vector", set(bitmap)},
		{"SetElement on a full vector", set(full)},
		{"NVals", func() {
			for _, v := range vectors {
				v.NVals()
			}
		}},
		{"Wait on a finished vector", sparse.Wait},
		{"conform keeping the format", func() {
			for _, v := range vectors {
				v.conform()
			}
		}},
	}
	for _, c := range calls {
		if a := testing.AllocsPerRun(100, c.call); a != 0 {
			t.Errorf("%s: %.1f allocations a call", c.name, a)
		}
	}
	for k, v := range vectors {
		if v.Format() != formats[k] {
			t.Errorf("vector %d left %v, want %v", k, v.Format(), formats[k])
		}
	}
}

// TestBuildAllocatesByTuple pins the cost of the one build: MatrixFromTuples
// buckets 2²⁰ random tuples on 2¹⁶×2¹⁶ straight from the caller's arrays
// into the result's own two, so it allocates at most 24 B a tuple — 16 for
// those arrays, where a copy of the tuples as a pending log would add 32.
func TestBuildAllocatesByTuple(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	const n, nt = 1 << 16, 1 << 20
	rows, cols, vals := randomTuples(n, n, nt, 1)
	b := bytesPerCall(t, func() error {
		_, err := MatrixFromTuples(n, n, rows, cols, vals, nil)
		return err
	})
	if b/nt > 24 {
		t.Errorf("MatrixFromTuples: %.1f B a tuple, want at most 24", b/nt)
	}
}

// TestTinyFrontierPullLevelBorrowsItsBitmap: a warm BFS pull level on a
// 2¹⁴-vertex ring, from the two vertices at depth 1 to the two at depth 2,
// allocates fewer bytes than the ns×n bitmap it sums into has cells
// (ns = 1): that bitmap is borrowed from the pool, where allocating it per
// level cost 9 bytes a cell.
func TestTinyFrontierPullLevelBorrowsItsBitmap(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	defer parallel.SetMaxThreads(parallel.SetMaxThreads(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n = 1 << 14
	if b := bytesPerCall(t, ringPullLevel(t, n)); b >= n {
		t.Errorf("a warm pull level allocated %.0f B, budget under ns·n = %d", b, n)
	}
}

// TestTinyFrontierPullLevelColdBorrow: the same level on a 2¹⁶-vertex
// ring, run once the pool is emptied, borrows its bitmap's cells and
// values at 1 + 8 bytes a cell, and allocates at most 64 KiB besides (the
// pools' per-P arrays among them, at one P), where borrowing the values
// as a sparse accumulator brought its unread int32 marks along, 13 bytes
// a cell.
func TestTinyFrontierPullLevelColdBorrow(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	defer parallel.SetMaxThreads(parallel.SetMaxThreads(1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // the pools' per-P arrays
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n, slack = 1 << 16, 64 << 10
	level := ringPullLevel(t, n)
	if err := level(); err != nil { // p and d become bitmaps
		t.Fatal(err)
	}
	runtime.GC() // sync.Pool drops what two collections find idle
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := level(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	b := after.TotalAlloc - before.TotalAlloc
	t.Logf("a cold pull level allocated %d B, %.2f B a cell", b, float64(b)/n)
	if b > (1+8)*n+slack {
		t.Errorf("a cold pull level allocated %d B, budget (1+8)·ns·n + 64 KiB = %d", b, (1+8)*n+slack)
	}
}

// ringPullLevel returns one BFS pull level on an n-vertex ring, from the
// two vertices at depth 1 to the two at depth 2, which undoes itself so
// that every call runs the same level.
func ringPullLevel(t *testing.T, n int) func() error {
	adj := newTinyFrontier(t, n).adj
	p, err := VectorFromTuples(n, []int{0, 1, n - 1}, []int64{0, 0, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := VectorFromTuples(n, []int{0, 1, n - 1}, []int32{0, 1, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	q, err := VectorFromTuples(n, []int{1, n - 1}, []int64{0, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	front := q.store
	return func() error {
		q.store = front
		nf, err := FusedBFSStep(p, q, d, adj, adj, true)
		if err != nil {
			return err
		}
		if nf != 2 || q.idx[0] != 2 || q.idx[1] != n-2 || p.val[2] != 1 || p.val[n-2] != int64(n-1) || d.val[2] != 2 || d.val[n-2] != 2 {
			t.Fatalf("level found %v, parents %d and %d, depths %d and %d", q.idx, p.val[2], p.val[n-2], d.val[2], d.val[n-2])
		}
		for _, j := range q.idx {
			p.b[j], d.b[j] = 0, 0
		}
		p.nvalsB, d.nvalsB = p.nvalsB-nf, d.nvalsB-nf
		return nil
	}
}

// TestFusedMinPlusPushStepAllocates: one warm SSSP relaxation over every
// edge of a 4-vertex frontier on a Road grid makes no allocation once its
// bins have lists to reuse, on 96×96 and on 384×384 alike, where the
// unfused VxM + EWiseAddV pair scanned all of t and the step's earlier
// form allocated its lowered entries' two arrays.
func TestFusedMinPlusPushStepAllocates(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, dim := range []int{96, 384} {
		e := gen.Road(dim, 1)
		e.AddUniformWeights(7, 1, 255)
		ptr, idx, w := e.CSR()
		A, err := ImportCSR(e.N, e.N, ptr, idx, w, false)
		if err != nil {
			t.Fatal(err)
		}
		front := []int{e.N/2 - dim, e.N/2 - 1, e.N / 2, e.N/2 + dim}
		vals := []float64{10, 20, 30, 40}
		d := DenseVector(e.N, MaxOf[float64]())
		bins, err := NewBins(d, 64)
		if err != nil {
			t.Fatal(err)
		}
		f := MustVector[float64](e.N)
		allocs := testing.AllocsPerRun(50, func() {
			for k, i := range front {
				d.val[i] = vals[k]
			}
			f.Clear()
			f.idx, f.val = front, vals
			reached, err := FusedMinPlusPushStep(bins, f, A)
			if err != nil {
				t.Fatalf("step: %v", err)
			}
			if reached == 0 || len(bins.at) == 0 {
				t.Fatalf("steps reached %d and filed into %d bins", reached, len(bins.at))
			}
			for i := range d.val { // undo the steps
				d.val[i] = MaxOf[float64]()
			}
			for k := range bins.at {
				bins.close(k)
			}
			bins.order = bins.order[:0]
		})
		t.Logf("Road %d×%d: %.1f allocations a step", dim, dim, allocs)
		if allocs > 0 {
			t.Errorf("a 4-vertex step on Road %d×%d made %.1f allocations, budget 0", dim, dim, allocs)
		}
	}
}
