package experimental

import (
	"math"
	"math/rand"
	"testing"

	"lagraph/internal/grb"
	"lagraph/internal/lagraph"
)

// refBellmanFord is the textbook O(V·E) reference.
func refBellmanFord(n int, edges [][3]float64, src int) ([]float64, bool) {
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	for round := 0; round < n-1; round++ {
		changed := false
		for _, e := range edges {
			u, v, w := int(e[0]), int(e[1]), e[2]
			if dist[u]+w < dist[v] {
				dist[v] = dist[u] + w
				changed = true
			}
		}
		if !changed {
			return dist, false
		}
	}
	for _, e := range edges {
		u, v, w := int(e[0]), int(e[1]), e[2]
		if !math.IsInf(dist[u], 1) && dist[u]+w < dist[v] {
			return dist, true
		}
	}
	return dist, false
}

func buildWeighted(t *testing.T, n int, edges [][3]float64) *lagraph.Graph[float64] {
	t.Helper()
	var rows, cols []int
	var vals []float64
	for _, e := range edges {
		rows = append(rows, int(e[0]))
		cols = append(cols, int(e[1]))
		vals = append(vals, e[2])
	}
	A, err := grb.MatrixFromTuples(n, n, rows, cols, vals, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := lagraph.New(&A, lagraph.AdjacencyDirected)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBellmanFordPositiveWeightsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		n := 6 + rng.Intn(25)
		var edges [][3]float64
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rng.Float64() < 0.2 {
					edges = append(edges, [3]float64{float64(i), float64(j), float64(1 + rng.Intn(9))})
				}
			}
		}
		g := buildWeighted(t, n, edges)
		d, neg, err := BellmanFord(bg, g, 0)
		if err != nil {
			t.Fatal(err)
		}
		if neg {
			t.Fatal("false negative-cycle report on positive weights")
		}
		want, _ := refBellmanFord(n, edges, 0)
		for i := 0; i < n; i++ {
			x, errE := d.ExtractElement(i)
			if math.IsInf(want[i], 1) {
				if errE == nil {
					t.Fatalf("unreachable %d has distance %v", i, x)
				}
				continue
			}
			if errE != nil || x != want[i] {
				t.Fatalf("dist(%d) = %v (%v), want %v", i, x, errE, want[i])
			}
		}
	}
}

func TestBellmanFordNegativeEdges(t *testing.T) {
	// 0 -> 1 (4), 0 -> 2 (6), 2 -> 1 (-3): best path to 1 is 3 via 2.
	edges := [][3]float64{{0, 1, 4}, {0, 2, 6}, {2, 1, -3}}
	g := buildWeighted(t, 3, edges)
	d, neg, err := BellmanFord(bg, g, 0)
	if err != nil || neg {
		t.Fatalf("err=%v neg=%v", err, neg)
	}
	x, _ := d.ExtractElement(1)
	if x != 3 {
		t.Fatalf("dist(1) = %v, want 3 (via the negative edge)", x)
	}
}

func TestBellmanFordDetectsNegativeCycle(t *testing.T) {
	// Cycle 1 -> 2 -> 1 with total weight -1, reachable from 0.
	edges := [][3]float64{{0, 1, 1}, {1, 2, 2}, {2, 1, -3}}
	g := buildWeighted(t, 3, edges)
	_, neg, err := BellmanFord(bg, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !neg {
		t.Fatal("reachable negative cycle not detected")
	}
	// The same cycle NOT reachable from the source is fine.
	g2 := buildWeighted(t, 4, [][3]float64{{1, 2, 2}, {2, 1, -3}, {0, 3, 1}})
	_, neg2, err := BellmanFord(bg, g2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if neg2 {
		t.Fatal("unreachable negative cycle reported")
	}
}

func TestBellmanFordAgreesWithDeltaStepping(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 6; trial++ {
		n := 10 + rng.Intn(30)
		var edges [][3]float64
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rng.Float64() < 0.15 {
					edges = append(edges, [3]float64{float64(i), float64(j), float64(1 + rng.Intn(20))})
				}
			}
		}
		g := buildWeighted(t, n, edges)
		bf, neg, err := BellmanFord(bg, g, 0)
		if err != nil || neg {
			t.Fatalf("bf: %v %v", err, neg)
		}
		ds, err := lagraph.SSSPDeltaStepping(bg, g, 0, 5)
		if err != nil {
			t.Fatal(err)
		}
		// Delta-stepping holds +inf for unreached on a full vector;
		// Bellman-Ford leaves them absent. Compare where BF has entries.
		bf.Iterate(func(i int, x float64) {
			y, _ := ds.ExtractElement(i)
			if x != y {
				t.Fatalf("dist(%d): bf %v, delta %v", i, x, y)
			}
		})
	}
}

func TestBellmanFordValidation(t *testing.T) {
	g := buildWeighted(t, 3, [][3]float64{{0, 1, 1}})
	if _, _, err := BellmanFord(bg, g, 9); err == nil {
		t.Fatal("bad source accepted")
	}
}
