package lagraph

import (
	"sync"
	"sync/atomic"
	"testing"

	"lagraph/internal/grb"
)

// randomGraph builds a small deterministic graph of the given kind for
// the concurrency tests: n vertices, ~n*deg edges from a multiplicative
// congruential stream, each mirrored when the graph is undirected.
func randomGraph(t *testing.T, n, deg int, kind Kind) *Graph[float64] {
	t.Helper()
	var rows, cols []int
	var vals []float64
	state := uint64(0x9e3779b97f4a7c15)
	next := func() int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state % uint64(n))
	}
	for i := 0; i < n; i++ {
		for k := 0; k < deg; k++ {
			j := next()
			if j == i {
				continue
			}
			rows = append(rows, i)
			cols = append(cols, j)
			vals = append(vals, float64(k+1))
			if kind == AdjacencyUndirected {
				rows = append(rows, j)
				cols = append(cols, i)
				vals = append(vals, float64(k+1))
			}
		}
	}
	A, err := grb.MatrixFromTuples(n, n, rows, cols, vals, func(a, b float64) float64 { return a })
	if err != nil {
		t.Fatalf("MatrixFromTuples: %v", err)
	}
	g, err := New(&A, kind)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return g
}

// TestConcurrentPropertyMemoization hammers one graph's property cache
// from many goroutines: half the workers demand every property through the
// Property* methods, half through Ensure, while Cached, the Cached*
// accessors and CheckGraph race against them. Over both routes each
// property is computed once: one nil return or computed == true in all.
// An undirected graph is symmetric from the start, so there nothing
// computes ASymmetricPattern, and its AT and ColDegree alias A and
// RowDegree. Run under -race this verifies the mutex-guarded cache (the
// seed implementation was racy by construction).
func TestConcurrentPropertyMemoization(t *testing.T) {
	for _, kind := range []Kind{AdjacencyDirected, AdjacencyUndirected} {
		t.Run(KindName(kind), func(t *testing.T) {
			g := randomGraph(t, 300, 8, kind)
			methods := [NumProperties]func() error{
				g.PropertyAT,
				g.PropertyRowDegree,
				g.PropertyColDegree,
				g.PropertyASymmetricPattern,
				g.PropertyNDiag,
			}

			const workers = 16
			var computes [NumProperties]atomic.Int64
			var wg sync.WaitGroup
			// Sized for the worst case (every call in every iteration
			// failing) so a regression reports instead of deadlocking on a
			// full channel.
			errs := make(chan error, workers*4*(NumProperties+1))
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for it := 0; it < 4; it++ {
						for p, method := range methods {
							var computed bool
							var err error
							if w%2 == 0 {
								err = method()
								computed = err == nil
								if IsWarning(err) {
									err = nil
								}
							} else {
								computed, err = g.Ensure(Property(p))
							}
							if err != nil {
								errs <- err
							}
							if computed {
								computes[p].Add(1)
							}
							_ = g.Cached(Property(p))
						}
						_ = g.CachedAT()
						_ = g.CachedRowDegree()
						_ = g.CachedColDegree()
						_ = g.CachedSymmetry()
						_ = g.CachedNDiag()
						if err := g.CheckGraph(); err != nil {
							errs <- err
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Errorf("concurrent property call failed: %v", err)
			}

			for p := Property(0); p < NumProperties; p++ {
				want := int64(1)
				if kind == AdjacencyUndirected && p == PropSymmetry {
					want = 0
				}
				if got := computes[p].Load(); got != want {
					t.Errorf("%s computed %d times, want %d", p, got, want)
				}
				if !g.Cached(p) {
					t.Errorf("%s not cached after hammer", p)
				}
			}
			if kind == AdjacencyUndirected {
				if g.CachedAT() != g.A || g.CachedColDegree() != g.CachedRowDegree() {
					t.Fatal("undirected AT and ColDegree must alias A and RowDegree")
				}
				return
			}
			eq, err := IsEqual(g.CachedAT(), grb.NewTranspose(g.A))
			if err != nil {
				t.Fatalf("IsEqual: %v", err)
			}
			if !eq {
				t.Fatal("cached AT does not equal the transpose of A")
			}
		})
	}
}

// TestConcurrentAlgorithmsShareProperties runs Basic-mode algorithms (which
// compute missing properties behind the caller's back) concurrently on one
// graph. The algorithms must agree with a sequential run on an identical
// graph, and the property cache must come out consistent.
func TestConcurrentAlgorithmsShareProperties(t *testing.T) {
	g := randomGraph(t, 300, 8, AdjacencyDirected)

	// Sequential reference on an identical graph.
	ref := randomGraph(t, 300, 8, AdjacencyDirected)
	refRank, _, err := PageRank(bg, ref, 0.85, 1e-6, 50)
	if err != nil && !IsWarning(err) {
		t.Fatalf("reference PageRank: %v", err)
	}
	refParent, _, err := BreadthFirstSearch(bg, ref, 0, true, false)
	if err != nil && !IsWarning(err) {
		t.Fatalf("reference BFS: %v", err)
	}

	const workers = 12
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			switch w % 3 {
			case 0:
				r, _, err := PageRank(bg, g, 0.85, 1e-6, 50)
				if err != nil && !IsWarning(err) {
					errs <- err
					return
				}
				if eq, err := VectorIsEqual(r, refRank); err != nil || !eq {
					errs <- errf(StatusInvalidValue, "PageRank diverged from sequential run (eq=%v err=%v)", eq, err)
				}
			case 1:
				p, _, err := BreadthFirstSearch(bg, g, 0, true, false)
				if err != nil && !IsWarning(err) {
					errs <- err
					return
				}
				if p.NVals() != refParent.NVals() {
					errs <- errf(StatusInvalidValue, "BFS reached %d vertices, want %d", p.NVals(), refParent.NVals())
				}
			case 2:
				if _, err := ConnectedComponents(bg, g); err != nil && !IsWarning(err) {
					errs <- err
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent algorithm failed: %v", err)
	}
	if err := g.CheckGraph(); err != nil {
		t.Fatalf("CheckGraph after concurrent algorithms: %v", err)
	}
}
