package main

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestTinyWorkloads runs all four workloads of the -tiny table, untraced
// and traced, and holds the output to BENCHMARK.json: every declared
// metric is present exactly once (the metrics are a map, so "at most once"
// is structural; the test checks "at least once and nothing undeclared"),
// finite, and — for the end-to-end cells — above zero. The traced run's
// span file must parse with every span's parent present.
func TestTinyWorkloads(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	table := tinyWorkloads()
	if len(spec.Workloads) != len(table) {
		t.Fatalf("BENCHMARK.json has %d workloads, the table %d", len(spec.Workloads), len(table))
	}
	for _, sw := range spec.Workloads {
		w, err := findWorkload(table, sw.Name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(w.name, func(t *testing.T) {
			res, err := measure(w, 1, nominalSeconds, false, "")
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("untraced run: %+v", res)
			}
			if len(res.Metrics) != len(spec.EndToEnd) {
				t.Errorf("untraced run printed %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(spec.EndToEnd))
			}
			for _, e := range spec.EndToEnd {
				m, ok := res.Metrics[e.Name]
				if !ok {
					t.Errorf("end-to-end metric %s not printed", e.Name)
					continue
				}
				if !nameRE.MatchString(e.Name) {
					t.Errorf("metric name %q is not a legal name", e.Name)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want finite and > 0", e.Name, m.Value)
				}
			}

			tracePath := filepath.Join(t.TempDir(), "trace.json")
			res, err = measure(w, 1, nominalSeconds, true, tracePath)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced run: %+v", res)
			}
			if len(res.Metrics) != len(spec.PerLayer) {
				t.Errorf("traced run printed %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(spec.PerLayer))
			}
			for _, p := range spec.PerLayer {
				m, ok := res.Metrics[p.Name]
				if !ok {
					t.Errorf("per-layer metric %s not printed", p.Name)
					continue
				}
				if !nameRE.MatchString(p.Name) {
					t.Errorf("metric name %q is not a legal name", p.Name)
				}
				if m.Unit != p.Unit {
					t.Errorf("per-layer metric %s printed in %q, declared %q", p.Name, m.Unit, p.Unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("per-layer metric %s = %v", p.Name, m.Value)
				}
			}

			b, err := os.ReadFile(tracePath)
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(b, &tf); err != nil {
				t.Fatal(err)
			}
			if len(tf.Spans) == 0 {
				t.Fatal("trace has no spans")
			}
			ids := map[int]span{}
			for _, s := range tf.Spans {
				ids[s.ID] = s
			}
			layers := map[string]bool{}
			for _, s := range tf.Spans {
				layers[s.Layer] = true
				if s.End < s.Start {
					t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
				}
				if s.Parent == 0 {
					continue
				}
				parent, ok := ids[s.Parent]
				if !ok {
					t.Errorf("span %d (%s) has missing parent %d", s.ID, s.Name, s.Parent)
				} else if s.Start < parent.Start || s.End > parent.End {
					t.Errorf("span %d (%s) is not inside its parent %d (%s)", s.ID, s.Name, parent.ID, parent.Name)
				}
			}
			for _, l := range []string{"server", "gap", "lagraph", "grb", "parallel", "registry", "jobs", "algo", "stream", "store", "disk"} {
				if !layers[l] {
					t.Errorf("trace has no span of layer %s", l)
				}
			}
		})
	}
}

// TestMirrorFollowsMutations pins the mirror's invariants the oracle
// depends on: symmetric sorted adjacency, exact entry count, stationary
// size under mutation.
func TestMirrorFollowsMutations(t *testing.T) {
	w, _ := findWorkload(tinyWorkloads(), "road-cold")
	m := buildMirror(w, 0, 3)
	before := m.nnz
	r := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 50; i++ {
		m.mutation(r, 16)
	}
	count := 0
	for u, a := range m.adj {
		for i, e := range a {
			count++
			if i > 0 && a[i-1].v >= e.v {
				t.Fatalf("adjacency of %d not strictly sorted", u)
			}
			if j, ok := m.find(e.v, int32(u)); !ok || m.adj[e.v][j].w != e.w {
				t.Fatalf("edge (%d,%d) has no symmetric twin of equal weight", u, e.v)
			}
		}
	}
	if count != m.nnz {
		t.Fatalf("nnz says %d, adjacency holds %d", m.nnz, count)
	}
	if lost := before - m.nnz; lost != 2*len(m.pool) || len(m.pool) > 4*16+8 {
		t.Fatalf("%d entries gone, %d edges pooled", lost, len(m.pool))
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(xs, n=4),
// the driver's definition of a spread.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 4, 8, 16, 32, 64}, [3]float64{2, 8, 32}},
		{[]float64{2, 8}, [3]float64{0.5, 5, 9.5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestVerdict pins the self-check's judgement: two sets of the same code
// may disagree in neither direction, and setup_s is held to the shift alone.
func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		name          string
		spread, shift float64
		breach        bool
	}{
		{"x_gap_total", 0.03, 0.01, false},
		{"x_gap_total", 0.03, 0.11, true},
		{"x_gap_total", 0.03, -0.40, true},
		{"x_gap_total", 0.11, 0.00, true},
		{"x_gap_total", 0.05, -0.06, false}, // reported, not a breach
		{"setup_s", 0.30, 0.02, false},
		{"setup_s", 0.02, -0.11, true},
	} {
		if v, breach := verdict(c.name, 0.10, c.spread, c.shift); breach != c.breach {
			t.Errorf("verdict(%s, bound 0.10, spread %v, shift %v) = %q, breach %v; want breach %v",
				c.name, c.spread, c.shift, v, breach, c.breach)
		}
	}
}
