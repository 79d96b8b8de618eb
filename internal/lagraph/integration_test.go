package lagraph

import (
	"fmt"
	"math"
	"testing"

	"lagraph/internal/gap"
	"lagraph/internal/gen"
)

// Integration tests: the LAGraph (linear-algebra) implementations and the
// GAP-style (direct) baselines must agree on the generated benchmark
// graphs — the correctness backbone of the Table III reproduction.

// graphFromEdges builds the LAGraph Graph from a generator edge list.
func graphFromEdges(t testing.TB, e *gen.EdgeList) *Graph[float64] {
	t.Helper()
	return weightedGraph[float64](t, e)
}

func benchmarkGraphs(scale int) []*gen.EdgeList {
	ef := 8
	dim := 1 << (scale / 2)
	return []*gen.EdgeList{
		gen.Kron(scale, ef, 1),
		gen.Urand(scale, ef, 1),
		gen.Twitter(scale, ef, 1),
		gen.Web(scale, ef, 1),
		gen.Road(dim, 1),
	}
}

func TestCrossValidationBFSAllGraphClasses(t *testing.T) {
	for _, e := range benchmarkGraphs(8) {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			lg := graphFromEdges(t, e)
			gg := gap.Build(e.N, e.Src, e.Dst, nil, e.Directed)
			src := 0
			p, _, err := BreadthFirstSearch(bg, lg, src, true, true)
			if err != nil && !IsWarning(err) {
				t.Fatal(err)
			}
			gapParent := gap.BFSParents(gg, int32(src))
			// Same reachability set; both parent assignments valid.
			for i := 0; i < e.N; i++ {
				_, errL := p.ExtractElement(i)
				reachedL := errL == nil
				reachedG := gapParent[i] >= 0
				if reachedL != reachedG {
					t.Fatalf("%s: vertex %d reachability: lagraph %v, gap %v",
						e.Name, i, reachedL, reachedG)
				}
			}
		})
	}
}

func TestCrossValidationLevelsAllGraphClasses(t *testing.T) {
	for _, e := range benchmarkGraphs(8) {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			lg := graphFromEdges(t, e)
			gg := gap.Build(e.N, e.Src, e.Dst, nil, e.Directed)
			lg.PropertyAT()
			lg.PropertyRowDegree()
			_, l, err := BreadthFirstSearchAdvanced(bg, lg, 0, false, true)
			if err != nil {
				t.Fatal(err)
			}
			want := gap.BFSLevels(gg, 0)
			for i := 0; i < e.N; i++ {
				x, errL := l.ExtractElement(i)
				if want[i] < 0 {
					if errL == nil {
						t.Fatalf("%s: unreached %d has level %d", e.Name, i, x)
					}
					continue
				}
				if errL != nil || x != want[i] {
					t.Fatalf("%s: level(%d) = %v (%v), want %d", e.Name, i, x, errL, want[i])
				}
			}
		})
	}
}

func TestCrossValidationPageRank(t *testing.T) {
	for _, e := range benchmarkGraphs(8) {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			lg := graphFromEdges(t, e)
			lg.PropertyAT()
			lg.PropertyRowDegree()
			gg := gap.Build(e.N, e.Src, e.Dst, nil, e.Directed)
			iters := 50
			r, _, err := PageRankGAP(bg, lg, 0.85, 0, iters)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := gap.PageRank(gg, 0.85, 0, iters)
			r.Iterate(func(i int, x float64) {
				if math.Abs(x-want[i]) > 1e-9 {
					t.Fatalf("%s: pr(%d) = %.12f, gap %.12f", e.Name, i, x, want[i])
				}
			})
		})
	}
}

func TestCrossValidationTriangleCount(t *testing.T) {
	for _, name := range []string{"Kron", "Urand"} {
		var e *gen.EdgeList
		if name == "Kron" {
			e = gen.Kron(8, 8, 1)
		} else {
			e = gen.Urand(8, 8, 1)
		}
		t.Run(name, func(t *testing.T) {
			lg := graphFromEdges(t, e)
			gg := gap.Build(e.N, e.Src, e.Dst, nil, false)
			got, err := TriangleCount(bg, lg)
			if err != nil && !IsWarning(err) {
				t.Fatal(err)
			}
			want := gap.TriangleCount(gg)
			if got != want {
				t.Fatalf("%s: lagraph %d triangles, gap %d", name, got, want)
			}
		})
	}
}

func TestCrossValidationConnectedComponents(t *testing.T) {
	for _, e := range benchmarkGraphs(8) {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			lg := graphFromEdges(t, e)
			gg := gap.Build(e.N, e.Src, e.Dst, nil, e.Directed)
			f, err := ConnectedComponents(bg, lg)
			if err != nil && !IsWarning(err) {
				t.Fatal(err)
			}
			want := gap.ConnectedComponents(gg)
			got := make([]int64, e.N)
			f.Iterate(func(i int, x int64) { got[i] = x })
			// Same partition.
			repL := map[int64]int32{}
			repG := map[int32]int64{}
			for i := 0; i < e.N; i++ {
				if w, ok := repL[got[i]]; ok {
					if w != want[i] {
						t.Fatalf("%s: vertex %d splits lagraph component", e.Name, i)
					}
				} else {
					repL[got[i]] = want[i]
				}
				if w, ok := repG[want[i]]; ok {
					if w != got[i] {
						t.Fatalf("%s: vertex %d splits gap component", e.Name, i)
					}
				} else {
					repG[want[i]] = got[i]
				}
			}
		})
	}
}

func TestCrossValidationSSSP(t *testing.T) {
	for _, e := range benchmarkGraphs(8) {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			e.AddUniformWeights(7, 1, 255)
			lg := graphFromEdges(t, e)
			gg := gap.Build(e.N, e.Src, e.Dst, e.W, e.Directed)
			delta := 64.0
			d, err := SSSPDeltaStepping(bg, lg, 0, delta)
			if err != nil {
				t.Fatal(err)
			}
			want := gap.SSSPDelta(gg, 0, float32(delta))
			d.Iterate(func(i int, x float64) {
				w := float64(want[i])
				if math.IsInf(w, 1) {
					if !math.IsInf(x, 1) {
						t.Fatalf("%s: unreachable %d got %v", e.Name, i, x)
					}
					return
				}
				if math.Abs(x-w) > 1e-3 {
					t.Fatalf("%s: dist(%d) = %v, gap %v", e.Name, i, x, w)
				}
			})
		})
	}
}

func TestCrossValidationBC(t *testing.T) {
	for _, name := range []string{"Kron", "Urand", "Road"} {
		var e *gen.EdgeList
		switch name {
		case "Kron":
			e = gen.Kron(7, 6, 1)
		case "Urand":
			e = gen.Urand(7, 6, 1)
		default:
			e = gen.Road(12, 1)
		}
		t.Run(name, func(t *testing.T) {
			lg := graphFromEdges(t, e)
			lg.PropertyAT()
			gg := gap.Build(e.N, e.Src, e.Dst, nil, e.Directed)
			sources := []int{0, 3, 5, 7}
			srcs32 := []int32{0, 3, 5, 7}
			c, err := BetweennessCentralityAdvanced(bg, lg, sources)
			if err != nil {
				t.Fatal(err)
			}
			want := gap.BC(gg, srcs32)
			c.Iterate(func(i int, x float64) {
				if math.Abs(x-want[i]) > 1e-6*(1+math.Abs(want[i])) {
					t.Fatalf("%s: bc(%d) = %v, gap %v", name, i, x, want[i])
				}
			})
		})
	}
}

// TestBCProbeMatchesBFSLevels: BC's forward phase is a batched BFS whose
// level-d frontier is the set of (source, vertex) pairs at hop distance d.
// So the probe's Frontier at level d equals Σₖ |{v : depthₖ(v) = d}| from
// gap's BFS, up to the empty level that ends the phase; each level's
// Direction is "pull" exactly when the frontier it was computed from (the
// source batch, for level 1) is denser than 1/bcPullThreshold; and
// backtrack_levels is one less than the number of non-empty levels. Kron
// and Road, batches of 1, 4 and 8.
func TestBCProbeMatchesBFSLevels(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range []*gen.EdgeList{gen.Kron(10, 8, 1), gen.Road(32, 1)} {
		lg := graphFromEdges(t, e)
		if err := lg.PropertyAT(); err != nil && !IsWarning(err) {
			t.Fatal(err)
		}
		gg := gap.Build(e.N, e.Src, e.Dst, nil, e.Directed)
		for _, ns := range []int{1, 4, 8} {
			sources := make([]int, ns)
			var perLevel []int // perLevel[d] = Σₖ |{v : depthₖ(v) = d}|
			for k := range sources {
				sources[k] = (2*k + 1) * e.N / (2 * ns)
				for _, d := range gap.BFSLevels(gg, int32(sources[k])) {
					if d < 0 {
						continue
					}
					for len(perLevel) <= int(d) {
						perLevel = append(perLevel, 0)
					}
					perLevel[d]++
				}
			}
			prb := NewProbe(1 << 20)
			if _, err := BetweennessCentralityAdvanced(WithProbe(bg, prb), lg, sources); err != nil {
				t.Fatal(err)
			}
			snap := prb.Snapshot()
			levels := len(perLevel) - 1
			what := fmt.Sprintf("%s, %d sources", e.Name, ns)
			if len(snap.Iters) != levels+1 {
				t.Fatalf("%s: %d level events, want %d non-empty levels and the empty one", what, len(snap.Iters), levels)
			}
			in := ns // the first step multiplies the batch itself
			for k, it := range snap.Iters {
				d := k + 1
				want := 0
				if d <= levels {
					want = perLevel[d]
				}
				dir := "push"
				if in*bcPullThreshold > ns*e.N {
					dir = "pull"
				}
				if it.Iter != d || it.Frontier != want || it.Direction != dir {
					t.Fatalf("%s: level event %+v, want level %d frontier %d by %s", what, it, d, want, dir)
				}
				seen[dir] = true
				in = it.Frontier
			}
			if got := snap.Counters["backtrack_levels"]; got != int64(levels-1) {
				t.Fatalf("%s: backtrack_levels %d, want %d", what, got, levels-1)
			}
		}
	}
	if !seen["push"] || !seen["pull"] {
		t.Fatalf("directions taken: %v; the graphs should need both", seen)
	}
}
