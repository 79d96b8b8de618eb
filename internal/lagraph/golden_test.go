package lagraph

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"lagraph/internal/gen"
	"lagraph/internal/grb"
	"lagraph/internal/parallel"
)

// Golden-file conformance suite: every GAP kernel is run on deterministic
// generated graphs and its full output is compared against a checked-in
// expectation, so a kernel refactor (a new fast path, a fused step, a
// changed format heuristic) can never silently change results. Regenerate
// with:
//
//	go test ./internal/lagraph -run TestGolden -update
//
// The kernels are run single-threaded: per-row accumulation order is
// fixed by the CSR structure, so with one worker the floating-point
// results are bit-stable across machines and GOMAXPROCS settings.

var updateGolden = flag.Bool("update", false, "rewrite golden files with current outputs")

// goldenGraphs are the deterministic inputs: one undirected (TC and CC
// need it) and one directed (exercises the AT/push-pull paths).
func goldenGraphs(t *testing.T) map[string]*Graph[float64] {
	t.Helper()
	build := func(e *gen.EdgeList, kind Kind) *Graph[float64] {
		e.AddUniformWeights(99, 1, 255)
		ptr, idx, vals := e.CSR()
		A, err := grb.ImportCSR(e.N, e.N, ptr, idx, vals, false)
		if err != nil {
			t.Fatal(err)
		}
		g, err := New(&A, kind)
		if err != nil {
			t.Fatal(err)
		}
		// Warm the cached properties outside the measured kernels, the way
		// the benchmark harness (and the paper's workflow) does.
		if err := g.PropertyAT(); err != nil && !IsWarning(err) {
			t.Fatal(err)
		}
		if err := g.PropertyRowDegree(); err != nil && !IsWarning(err) {
			t.Fatal(err)
		}
		return g
	}
	return map[string]*Graph[float64]{
		"kron":    build(gen.Kron(7, 4, 42), AdjacencyUndirected),
		"twitter": build(gen.Twitter(7, 4, 42), AdjacencyDirected),
	}
}

// goldenCases maps output names to kernel runs. Each returns the
// rendered-text form of its result.
func goldenCases(g *Graph[float64], undirected bool) map[string]func(t *testing.T) string {
	cases := map[string]func(t *testing.T) string{
		"bfs": func(t *testing.T) string {
			_, level, err := BreadthFirstSearchAdvanced(bg, g, 0, false, true)
			if err != nil {
				t.Fatalf("BFSLevel: %v", err)
			}
			return renderVector(level, func(x int32) string { return fmt.Sprintf("%d", x) })
		},
		"pagerank": func(t *testing.T) string {
			pr, iters, err := PageRankGAP(bg, g, 0.85, 1e-4, 100)
			if err != nil {
				t.Fatalf("PageRank: %v", err)
			}
			return fmt.Sprintf("iters %d\n", iters) +
				renderVector(pr, func(x float64) string { return fmt.Sprintf("%.12g", x) })
		},
		"cc": func(t *testing.T) string {
			comp, err := ConnectedComponents(bg, g)
			if err != nil {
				t.Fatalf("ConnectedComponents: %v", err)
			}
			return renderComponents(comp)
		},
		"sssp": func(t *testing.T) string {
			dist, err := SSSPDeltaStepping(bg, g, 0, 64)
			if err != nil {
				t.Fatalf("SSSP: %v", err)
			}
			return renderVector(dist, func(x float64) string {
				if !Reachable(x) {
					return "inf"
				}
				return fmt.Sprintf("%.12g", x)
			})
		},
		"bc": func(t *testing.T) string {
			bc, err := BetweennessCentrality(bg, g, []int{0, 1, 2, 3})
			if err != nil {
				t.Fatalf("BC: %v", err)
			}
			return renderVector(bc, func(x float64) string { return fmt.Sprintf("%.12g", x) })
		},
	}
	if undirected {
		cases["tc"] = func(t *testing.T) string {
			n, err := TriangleCount(bg, g)
			if err != nil && !IsWarning(err) {
				t.Fatalf("TriangleCount: %v", err)
			}
			return fmt.Sprintf("triangles %d\n", n)
		}
	}
	return cases
}

// renderVector prints "index value" per stored entry, in index order.
func renderVector[T grb.Value](v *grb.Vector[T], fmtVal func(T) string) string {
	var b bytes.Buffer
	v.Iterate(func(i int, x T) {
		fmt.Fprintf(&b, "%d %s\n", i, fmtVal(x))
	})
	return b.String()
}

// renderComponents canonicalizes CC labels — implementations are free to
// pick any representative, so each vertex is printed with the *minimum*
// vertex id of its component.
func renderComponents(comp *grb.Vector[int64]) string {
	minOf := map[int64]int{}
	var order []int
	labels := map[int]int64{}
	comp.Iterate(func(i int, x int64) {
		order = append(order, i)
		labels[i] = x
		if cur, ok := minOf[x]; !ok || i < cur {
			minOf[x] = i
		}
	})
	var b bytes.Buffer
	for _, i := range order {
		fmt.Fprintf(&b, "%d %d\n", i, minOf[labels[i]])
	}
	return b.String()
}

func TestGoldenGAPConformance(t *testing.T) {
	// One worker ⇒ deterministic float accumulation order everywhere.
	prev := parallel.SetMaxThreads(1)
	defer parallel.SetMaxThreads(prev)

	graphs := goldenGraphs(t)
	for gname, g := range graphs {
		for alg, run := range goldenCases(g, g.Kind == AdjacencyUndirected) {
			t.Run(gname+"/"+alg, func(t *testing.T) {
				got := run(t)
				path := filepath.Join("testdata", "golden", gname+"-"+alg+".golden")
				if *updateGolden {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden file (run with -update to create): %v", err)
				}
				if got != string(want) {
					t.Errorf("%s/%s output diverged from golden file %s\n%s",
						gname, alg, path, diffHint(string(want), got))
				}
			})
		}
	}
}

// diffHint shows the first differing line, keeping failures readable.
func diffHint(want, got string) string {
	wl := bytes.Split([]byte(want), []byte("\n"))
	gl := bytes.Split([]byte(got), []byte("\n"))
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			return fmt.Sprintf("first diff at line %d:\n  want: %s\n  got:  %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line counts differ: want %d, got %d", len(wl), len(gl))
}
