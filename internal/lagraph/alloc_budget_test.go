package lagraph

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"lagraph/internal/gap"
	"lagraph/internal/gen"
)

// TestRoadKernelAllocationBudget pins the two kernels the paper's Road row
// is about (§VI-B) on the bench's 96×96 grid, after a seeded batch of
// deletes and upserts applied the way the service applies them (a
// copy-on-write snapshot, then SetElement/RemoveElement): BC over four
// sources and delta-stepping SSSP must equal the GAP oracle on the mutated
// graph and stay inside an allocation budget per run — 24 and 16 MiB,
// where allocating by n on every tiny-frontier call cost 1 286 and 440.
func TestRoadKernelAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	e := gen.Road(96, 1)
	e.AddUniformWeights(7, 1, 255)
	base := graphFromEdges(t, e)
	g, err := base.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// The mirror the oracle is built from.
	type edge struct{ u, v int32 }
	mirror := make(map[edge]float64, len(e.Src))
	for k := range e.Src {
		mirror[edge{e.Src[k], e.Dst[k]}] = e.W[k]
	}
	rng := rand.New(rand.NewSource(18))
	for k := 0; k < 256; k++ {
		at := rng.Intn(len(e.Src))
		u, v := e.Src[at], e.Dst[at]
		switch k % 4 {
		case 0, 1: // delete an edge of the original graph
			delete(mirror, edge{u, v})
			if err := g.A.RemoveElement(int(u), int(v)); err != nil {
				t.Fatal(err)
			}
		case 2: // reweight one (or bring a deleted one back)
			w := float64(1 + rng.Intn(255))
			mirror[edge{u, v}] = w
			if err := g.A.SetElement(w, int(u), int(v)); err != nil {
				t.Fatal(err)
			}
		default: // a new shortcut
			v = int32(rng.Intn(e.N))
			if v == u {
				continue
			}
			w := float64(1 + rng.Intn(255))
			mirror[edge{u, v}] = w
			if err := g.A.SetElement(w, int(u), int(v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	edges := make([]edge, 0, len(mirror))
	for ed := range mirror {
		edges = append(edges, ed)
	}
	sort.Slice(edges, func(a, b int) bool {
		return edges[a].u < edges[b].u || edges[a].u == edges[b].u && edges[a].v < edges[b].v
	})
	src, dst, w := make([]int32, len(edges)), make([]int32, len(edges)), make([]float64, len(edges))
	for k, ed := range edges {
		src[k], dst[k], w[k] = ed.u, ed.v, mirror[ed]
	}
	oracle := gap.Build(e.N, src, dst, w, true)
	if got := g.NumEdges(); got != len(edges) {
		t.Fatalf("mutated graph has %d edges, mirror %d", got, len(edges))
	}
	if err := g.PropertyAT(); err != nil && !IsWarning(err) {
		t.Fatal(err)
	}
	if n := base.NumEdges(); n != len(e.Src) {
		t.Fatalf("the snapshot's base moved: %d edges, want %d", n, len(e.Src))
	}

	// allocated runs f twice — the pool is warm the second time, as it is
	// in a serving process — and reports the second run's bytes.
	allocated := func(f func()) float64 {
		f()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	}

	sources := []int{0, e.N / 3, e.N / 2, e.N - 1}
	sources32 := make([]int32, len(sources))
	for k, s := range sources {
		sources32[k] = int32(s)
	}
	wantBC := gap.BC(oracle, sources32)
	mib := allocated(func() {
		c, err := BetweennessCentralityAdvanced(bg, g, sources)
		if err != nil {
			t.Fatal(err)
		}
		c.Iterate(func(i int, x float64) {
			if math.Abs(x-wantBC[i]) > 1e-6*(1+math.Abs(wantBC[i])) {
				t.Fatalf("bc(%d) = %v, gap %v", i, x, wantBC[i])
			}
		})
	})
	if mib > 24 {
		t.Errorf("BC on Road 96×96 allocated %.1f MiB, budget 24", mib)
	}

	const delta = 64
	wantDist := gap.SSSPDelta(oracle, 0, delta)
	mib = allocated(func() {
		d, err := SSSPDeltaStepping(bg, g, 0, delta)
		if err != nil {
			t.Fatal(err)
		}
		d.Iterate(func(i int, x float64) {
			if want := float64(wantDist[i]); x != want && !(math.IsInf(want, 1) && !Reachable(x)) {
				t.Fatalf("dist(%d) = %v, gap %v", i, x, want)
			}
		})
	})
	if mib > 16 {
		t.Errorf("SSSP on Road 96×96 allocated %.1f MiB, budget 16", mib)
	}
}
