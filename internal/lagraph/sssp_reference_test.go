package lagraph

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"lagraph/internal/gap"
	"lagraph/internal/gen"
	"lagraph/internal/grb"
)

// ssspAlgorithm5 is the paper's Algorithm 5 as written, the reference
// SSSPDeltaStepping is checked against: each bucket is selected out of the
// full distance vector t, and each relaxation is a VxM, an improvement
// test, a merge into t and a gather of what improved — several passes over
// all n vertices a bucket. Light edges are w ≤ split: split = Δ is
// Algorithm 5 as written, split = MaxOf[T] makes every edge light, which
// is the schedule the kernel runs. It reports the same probe events as the
// kernel: per bucket the number of its vertices and the sum of nvals(tReq)
// over its relaxations.
func ssspAlgorithm5[T grb.Number](ctx context.Context, g *Graph[T], src int, delta, split T) (*grb.Vector[T], error) {
	prb := ProbeFrom(ctx)
	n := g.NumNodes()
	inf := grb.MaxOf[T]()
	var zero T

	// AL = A⟨A ≤ split⟩ ; AH = A⟨split < A⟩ (lines 2-3).
	AL := grb.MustMatrix[T](n, n)
	if err := grb.Select(AL, grb.NoMask, nil, grb.ValueLE[T](), g.A, split, nil); err != nil {
		return nil, err
	}
	AH := grb.MustMatrix[T](n, n)
	if err := grb.Select(AH, grb.NoMask, nil, grb.ValueGT[T](), g.A, split, nil); err != nil {
		return nil, err
	}

	// t(:) = ∞ ; t(s) = 0 (lines 4-5).
	t := grb.DenseVector(n, inf)
	Must(t.SetElement(zero, src))

	minPlus := grb.MinPlus[T]()
	minOp := grb.MinOp[T]()
	less := grb.BinaryOp[T, T, bool]{Name: "lt", F: func(a, b T) bool { return a < b }}
	bucketOf := func(v *grb.Vector[T], lo, hi T) (*grb.Vector[T], error) {
		inRange := grb.IndexUnaryOp[T]{Name: "range", F: func(x T, _, _ int, upper T) bool { return lo <= x && x < upper }}
		b := grb.MustVector[T](n)
		return b, grb.SelectV(b, grb.NoVMask, nil, inRange, v, hi, nil)
	}

	for i := 0; ; i++ {
		lo := T(i) * delta
		hi := lo + delta
		// tB = t⟨iΔ ≤ t < (i+1)Δ⟩ (line 8).
		tB, err := bucketOf(t, lo, hi)
		if err != nil {
			return nil, err
		}
		// e accumulates every vertex that was ever in bucket i (line 12).
		e := grb.MustVector[bool](n)
		bucketFront := tB.NVals()
		var bucketWork int64
		for tB.NVals() != 0 {
			if err := grb.AssignVectorScalar(e, grb.StructVMaskOf(tB), nil, true, grb.All, nil); err != nil {
				return nil, err
			}
			// tReq = ALᵀ min.plus tB (lines 10-11).
			tReq := grb.MustVector[T](n)
			if err := grb.VxM(tReq, grb.NoVMask, nil, minPlus, tB, AL, nil); err != nil {
				return nil, err
			}
			bucketWork += int64(tReq.NVals())
			// tless = tReq < t (line 14's guard).
			tless := grb.MustVector[bool](n)
			if err := grb.EWiseMultV(tless, grb.NoVMask, nil, less, tReq, t, nil); err != nil {
				return nil, err
			}
			// t = t min∪ tReq (line 15).
			if err := grb.EWiseAddV(t, grb.NoVMask, nil, minOp, t, tReq, nil); err != nil {
				return nil, err
			}
			// Next inner frontier: improved vertices still in this bucket
			// (lines 13-14).
			improved := grb.MustVector[T](n)
			if err := grb.ApplyV(improved, grb.VMaskOf(tless), nil, grb.Identity[T](), tReq, nil); err != nil {
				return nil, err
			}
			if tB, err = bucketOf(improved, lo, hi); err != nil {
				return nil, err
			}
		}
		// Heavy relaxation for the settled bucket (lines 16-17):
		// tReq = AHᵀ min.plus (t ×∩ e); t = t min∪ tReq.
		if e.NVals() > 0 {
			te := grb.MustVector[T](n)
			if err := grb.ApplyV(te, grb.StructVMaskOf(e), nil, grb.Identity[T](), t, nil); err != nil {
				return nil, err
			}
			tReq := grb.MustVector[T](n)
			if err := grb.VxM(tReq, grb.NoVMask, nil, minPlus, te, AH, nil); err != nil {
				return nil, err
			}
			bucketWork += int64(tReq.NVals())
			if err := grb.EWiseAddV(t, grb.NoVMask, nil, minOp, t, tReq, nil); err != nil {
				return nil, err
			}
		}
		prb.Iter(IterStat{Iter: i, Frontier: bucketFront, Work: bucketWork})
		prb.Add("relaxations", bucketWork)
		// Terminate when no finite tentative distance ≥ (i+1)Δ remains
		// (line 6); otherwise skip to the next non-empty bucket.
		remain, err := bucketOf(t, hi, inf)
		if err != nil {
			return nil, err
		}
		if remain.NVals() == 0 {
			break
		}
		nextMin := grb.ReduceVectorToScalar(grb.MinMonoid[T](), remain)
		if next := int(nextMin / delta); next > i {
			i = next - 1
		}
	}
	return t, nil
}

// weightedGraph builds the graph of a generator edge list with values of
// type T: its weights, or ones when it has none.
func weightedGraph[T grb.Number](t testing.TB, e *gen.EdgeList) *Graph[T] {
	t.Helper()
	ptr, idx, w := e.CSR()
	vals := make([]T, len(w))
	for k, x := range w {
		vals[k] = T(x)
	}
	A, err := grb.ImportCSR(e.N, e.N, ptr, idx, vals, false)
	if err != nil {
		t.Fatal(err)
	}
	kind := AdjacencyUndirected
	if e.Directed {
		kind = AdjacencyDirected
	}
	g, err := New(&A, kind)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// sameDistances fails unless d holds exactly gap's distance at every
// vertex, an unreached vertex holding +inf (MaxOf on an integer type).
func sameDistances[T grb.Number](t *testing.T, what string, d *grb.Vector[T], want []float32) {
	t.Helper()
	if d.NVals() != len(want) {
		t.Fatalf("%s: %d distances for %d vertices", what, d.NVals(), len(want))
	}
	d.Iterate(func(i int, x T) {
		w := float64(want[i])
		if math.IsInf(w, 1) {
			if Reachable(x) {
				t.Fatalf("%s: unreachable %d got %v", what, i, x)
			}
			return
		}
		if float64(x) != w {
			t.Fatalf("%s: dist(%d) = %v, gap %v", what, i, x, w)
		}
	})
}

// TestSSSPZeroWeightEdges: a zero-weight edge is light (0 ≤ w ≤ Δ), so the
// path 0 –0– 1 –5– 2 reaches 1 at 0 and 2 at 5; and on Road 96×96 with
// about 5 % of its weights set to 0 every distance equals gap's.
func TestSSSPZeroWeightEdges(t *testing.T) {
	A, err := grb.MatrixFromTuples(3, 3, []int{0, 1, 1, 2}, []int{1, 0, 2, 1}, []float64{0, 0, 5, 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := mustGraph(t, A, AdjacencyUndirected)
	for _, delta := range []float64{1, 5, 64} {
		d, err := SSSPDeltaStepping(bg, g, 0, delta)
		if err != nil {
			t.Fatal(err)
		}
		sameDistances(t, fmt.Sprintf("path, Δ=%v", delta), d, []float32{0, 0, 5})
	}

	e := gen.Road(96, 1)
	e.AddUniformWeights(7, 1, 255)
	for k := range e.W {
		if k%20 == 7 {
			e.W[k] = 0
		}
	}
	oracle := gap.Build(e.N, e.Src, e.Dst, e.W, e.Directed)
	const delta = 64
	want := gap.SSSPDelta(oracle, 0, delta)
	df, err := SSSPDeltaStepping(bg, weightedGraph[float64](t, e), 0, float64(delta))
	if err != nil {
		t.Fatal(err)
	}
	sameDistances(t, "Road float64", df, want)
	di, err := SSSPDeltaStepping(bg, weightedGraph[int64](t, e), 0, int64(delta))
	if err != nil {
		t.Fatal(err)
	}
	sameDistances(t, "Road int64", di, want)
}

// TestSSSPNegativeWeight: on the directed graph 0→1 (10), 1→3 (10),
// 0→2 (200), 2→1 (−195) at Δ = 64, bucket 3 lowers vertex 1 to 5, into
// bucket 0, whose edges were relaxed already; the true dist(3) is 15, and
// SSSP returns an InvalidValue error naming the negative weight instead of
// 20, for float64 and int64 weights.
func TestSSSPNegativeWeight(t *testing.T) {
	t.Run("float64", func(t *testing.T) { negativeWeightFails[float64](t) })
	t.Run("int64", func(t *testing.T) { negativeWeightFails[int64](t) })
}

func negativeWeightFails[T grb.Number](t *testing.T) {
	var w []T
	for _, x := range []float64{10, 10, 200, -195} {
		w = append(w, T(x))
	}
	A, err := grb.MatrixFromTuples(4, 4, []int{0, 1, 0, 2}, []int{1, 3, 2, 1}, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := SSSPDeltaStepping(bg, mustGraph(t, A, AdjacencyDirected), 0, 64)
	if StatusOf(err) != StatusInvalidValue || !strings.Contains(err.Error(), "negative") {
		var got any
		if d != nil {
			got, _ = d.ExtractElement(3)
		}
		t.Fatalf("err = %v (dist(3) = %v), want an InvalidValue error naming the negative weight", err, got)
	}
}

// TestSSSPDeltaTooSmall: on Road 8×8 with weights in [1, 255], a Δ so
// small that the distances' bucket indices pass the int range is an
// InvalidValue error naming delta, returned at once rather than at the
// context's deadline, while Δ = 1e-12, whose indices fit, still computes
// gap's distances. Shortest distances do not depend on Δ, and gap's
// bucket array is indexed by d/Δ, so the oracle runs at Δ = 64.
func TestSSSPDeltaTooSmall(t *testing.T) {
	e := gen.Road(8, 1)
	e.AddUniformWeights(7, 1, 255)
	g := weightedGraph[float64](t, e)
	ctx, cancel := context.WithTimeout(bg, 5*time.Second)
	defer cancel()
	_, err := SSSPDeltaStepping(ctx, g, 0, 1e-300)
	if StatusOf(err) != StatusInvalidValue || !strings.Contains(err.Error(), "delta") {
		t.Fatalf("Δ = 1e-300: err = %v, want an InvalidValue error naming delta", err)
	}
	d, err := SSSPDeltaStepping(ctx, g, 0, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	sameDistances(t, "Δ = 1e-12", d, gap.SSSPDelta(gap.Build(e.N, e.Src, e.Dst, e.W, e.Directed), 0, 64))
}

// TestSSSPMatchesAlgorithm5: the bucket-bins kernel computes what
// Algorithm 5 as written (split = Δ) does — every distance, the number of
// buckets and per bucket its number and frontier — and what gap computes;
// and with every edge light (split = MaxOf[T]) the same probe events,
// work included, and relaxations. On the three graph classes with float64
// and int64 weights in [1, 255], for a thin, a middling and a wide bucket,
// from four sources each (one under the race detector).
func TestSSSPMatchesAlgorithm5(t *testing.T) {
	graphs := []*gen.EdgeList{gen.Road(96, 1), gen.Kron(12, 8, 1), gen.Urand(12, 8, 1)}
	for _, e := range graphs {
		e.AddUniformWeights(7, 1, 255)
		oracle := gap.Build(e.N, e.Src, e.Dst, e.W, e.Directed)
		t.Run(e.Name+"/float64", func(t *testing.T) { matchesAlgorithm5(t, weightedGraph[float64](t, e), oracle) })
		t.Run(e.Name+"/int64", func(t *testing.T) { matchesAlgorithm5(t, weightedGraph[int64](t, e), oracle) })
	}
}

func matchesAlgorithm5[T grb.Number](t *testing.T, g *Graph[T], oracle *gap.Graph) {
	n := g.NumNodes()
	sources := []int{0, n / 3, n / 2, n - 1}
	if raceEnabled {
		// Under the race detector the reference's O(n) passes per bucket
		// cost nearly half a minute a source, most of it Road at Δ = 1.
		sources = sources[:1]
	}
	algorithm5 := func(split T) func(context.Context, *Graph[T], int, T) (*grb.Vector[T], error) {
		return func(ctx context.Context, g *Graph[T], src int, delta T) (*grb.Vector[T], error) {
			return ssspAlgorithm5(ctx, g, src, delta, split)
		}
	}
	for _, width := range []int{1, 64, 1024} {
		delta := T(width)
		for _, src := range sources {
			what := fmt.Sprintf("Δ=%v source %d", delta, src)
			run := func(kernel func(context.Context, *Graph[T], int, T) (*grb.Vector[T], error)) (*grb.Vector[T], ProbeSnapshot) {
				prb := NewProbe(1 << 20)
				d, err := kernel(WithProbe(bg, prb), g, src, delta)
				if err != nil {
					t.Fatal(err)
				}
				return d, prb.Snapshot()
			}
			got, gotProbe := run(SSSPDeltaStepping[T])
			ref, refProbe := run(algorithm5(delta))
			_, allLight := run(algorithm5(grb.MaxOf[T]()))
			want := gap.SSSPDelta(oracle, int32(src), float32(delta))
			sameDistances(t, what+" kernel", got, want)
			sameDistances(t, what+" algorithm 5", ref, want)
			for _, r := range []ProbeSnapshot{refProbe, allLight} {
				if gotProbe.Iterations != r.Iterations || len(gotProbe.Iters) != len(r.Iters) {
					t.Fatalf("%s: %d bucket events, algorithm 5 %d", what, gotProbe.Iterations, r.Iterations)
				}
			}
			for k, it := range gotProbe.Iters {
				if r := refProbe.Iters[k]; it.Iter != r.Iter || it.Frontier != r.Frontier {
					t.Fatalf("%s: bucket event %d is %+v, algorithm 5 %+v", what, k, it, r)
				}
				if r := allLight.Iters[k]; it != r {
					t.Fatalf("%s: bucket event %d is %+v, algorithm 5 with every edge light %+v", what, k, it, r)
				}
			}
			if gotProbe.Counters["relaxations"] != allLight.Counters["relaxations"] {
				t.Fatalf("%s: %d relaxations, algorithm 5 with every edge light %d", what, gotProbe.Counters["relaxations"], allLight.Counters["relaxations"])
			}
		}
	}
}

// BenchmarkSSSPRoad is the §VI-B ablation pair for delta-stepping on the
// Road class (96×96, weights in [1, 255], Δ = 64): the kernel over bucket
// bins, whose fused min.plus step relaxes every edge of a bucket vertex in
// one pass over A, read in place, and files the vertices it lowers,
// against Algorithm 5 as written, which selects each bucket out of t and
// copies A's light and heavy halves.
func BenchmarkSSSPRoad(b *testing.B) {
	e := gen.Road(96, 1)
	e.AddUniformWeights(7, 1, 255)
	g := weightedGraph[float64](b, e)
	for _, k := range []struct {
		name   string
		kernel func(context.Context, *Graph[float64], int, float64) (*grb.Vector[float64], error)
	}{{"fused", SSSPDeltaStepping[float64]}, {"algorithm5", func(ctx context.Context, g *Graph[float64], src int, delta float64) (*grb.Vector[float64], error) {
		return ssspAlgorithm5(ctx, g, src, delta, delta)
	}}} {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := k.kernel(bg, g, (i*e.N)/7%e.N, 64); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestSSSPDefaultDelta: a non-positive delta picks Δ as half the mean of
// A's first 1024 stored weights, never below 1, reading them in place. On
// Road 64×64 with weights in [1, 255], SingleSourceShortestPath with delta
// 0 computes the distances and per-bucket probe events of
// SSSPDeltaStepping at that Δ, for float64 and int64 weights, and picking
// Δ allocates under one byte per stored entry, where copying A's tuples
// cost 24. Unit weights and an edgeless graph get Δ = 1.
func TestSSSPDefaultDelta(t *testing.T) {
	e := gen.Road(64, 1)
	e.AddUniformWeights(7, 1, 255)
	t.Run("float64", func(t *testing.T) { defaultDeltaMatchesExplicit(t, weightedGraph[float64](t, e)) })
	t.Run("int64", func(t *testing.T) { defaultDeltaMatchesExplicit(t, weightedGraph[int64](t, e)) })

	unit := gen.Road(8, 1)
	unit.AddUniformWeights(7, 1, 1)
	if d := defaultDelta(weightedGraph[float64](t, unit)); d != 1 {
		t.Errorf("unit weights: Δ = %v, want 1", d)
	}
	empty, err := grb.NewMatrix[int64](4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d := defaultDelta(mustGraph(t, empty, AdjacencyDirected)); d != 1 {
		t.Errorf("no edges: Δ = %v, want 1", d)
	}
}

func defaultDeltaMatchesExplicit[T grb.Number](t *testing.T, g *Graph[T]) {
	_, _, vals := g.A.ExtractTuples()
	vals = vals[:min(len(vals), 1024)]
	var sum float64
	for _, v := range vals {
		sum += float64(v)
	}
	want := max(T(sum/float64(len(vals))/2), 1)
	if want <= 1 {
		t.Fatalf("weights average %v: the test needs Δ > 1", sum/float64(len(vals)))
	}
	if got := defaultDelta(g); got != want {
		t.Fatalf("Δ = %v, want %v", got, want)
	}
	if !raceEnabled {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		defaultDelta(g)
		runtime.ReadMemStats(&after)
		if bytes := after.TotalAlloc - before.TotalAlloc; bytes >= uint64(g.NumEdges()) {
			t.Errorf("picking Δ allocated %d B for %d stored entries", bytes, g.NumEdges())
		}
	}
	src := g.NumNodes() / 3
	run := func(delta T) (*grb.Vector[T], ProbeSnapshot) {
		prb := NewProbe(1 << 20)
		d, err := SingleSourceShortestPath(WithProbe(bg, prb), g, src, delta)
		if err != nil {
			t.Fatal(err)
		}
		return d, prb.Snapshot()
	}
	got, gotProbe := run(0)
	ref, refProbe := run(want)
	if same, err := VectorIsEqual(got, ref); err != nil || !same {
		t.Fatalf("delta 0 and Δ = %v disagree on distances (%v)", want, err)
	}
	if len(gotProbe.Iters) != len(refProbe.Iters) || gotProbe.Counters["relaxations"] != refProbe.Counters["relaxations"] {
		t.Fatalf("delta 0: %d buckets and %d relaxations; Δ = %v: %d and %d", len(gotProbe.Iters),
			gotProbe.Counters["relaxations"], want, len(refProbe.Iters), refProbe.Counters["relaxations"])
	}
	for k, it := range gotProbe.Iters {
		if it != refProbe.Iters[k] {
			t.Fatalf("bucket event %d is %+v with delta 0, %+v with Δ = %v", k, it, refProbe.Iters[k], want)
		}
	}
}
