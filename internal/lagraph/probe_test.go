package lagraph

import (
	"context"
	"testing"

	"lagraph/internal/grb"
)

// TestNilProbeZeroAlloc pins the tentpole's "zero overhead when disabled"
// contract: retrieving a probe from a probe-less context and exercising
// every method on the resulting nil *Probe must allocate nothing.
func TestNilProbeZeroAlloc(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		prb := ProbeFrom(ctx)
		if prb.Enabled() {
			t.Error("nil probe reports Enabled")
		}
		prb.Iter(IterStat{Iter: 1, Frontier: 10})
		prb.Add("work", 42)
		prb.SetMethod("none")
		prb.SetConverged(true)
	})
	if allocs != 0 {
		t.Fatalf("nil-probe path allocated %.1f times per run, want 0", allocs)
	}
}

// TestNilProbeSnapshot: a nil probe renders the zero snapshot.
func TestNilProbeSnapshot(t *testing.T) {
	var p *Probe
	snap := p.Snapshot()
	if snap.Iterations != 0 || snap.Converged != nil || snap.Method != "" ||
		snap.Iters != nil || snap.Counters != nil {
		t.Fatalf("nil probe snapshot not zero: %+v", snap)
	}
}

func TestProbeCollects(t *testing.T) {
	p := NewProbe(0)
	if !p.Enabled() {
		t.Fatal("live probe not enabled")
	}
	p.Iter(IterStat{Iter: 1, Frontier: 3, Direction: "push"})
	p.Iter(IterStat{Iter: 2, Frontier: 9, Direction: "pull", Residual: 0.5})
	p.Add("relaxations", 7)
	p.Add("relaxations", 5)
	p.SetMethod("sandia-lut")
	p.SetConverged(true)

	snap := p.Snapshot()
	if snap.Iterations != 2 {
		t.Errorf("Iterations = %d, want 2", snap.Iterations)
	}
	if len(snap.Iters) != 2 || snap.Iters[0].Frontier != 3 || snap.Iters[1].Direction != "pull" {
		t.Errorf("Iters = %+v", snap.Iters)
	}
	if snap.Counters["relaxations"] != 12 {
		t.Errorf("Counters = %v, want relaxations=12", snap.Counters)
	}
	if snap.Method != "sandia-lut" {
		t.Errorf("Method = %q", snap.Method)
	}
	if snap.Converged == nil || !*snap.Converged {
		t.Errorf("Converged = %v, want true", snap.Converged)
	}
	if snap.Dropped != 0 {
		t.Errorf("Dropped = %d, want 0", snap.Dropped)
	}
}

// TestProbeBounded: beyond the retention bound, iterations are counted but
// not kept, so deep traversals cannot grow a report without limit.
func TestProbeBounded(t *testing.T) {
	p := NewProbe(4)
	for i := 1; i <= 10; i++ {
		p.Iter(IterStat{Iter: i})
	}
	snap := p.Snapshot()
	if len(snap.Iters) != 4 {
		t.Errorf("kept %d iters, want 4", len(snap.Iters))
	}
	if snap.Dropped != 6 {
		t.Errorf("Dropped = %d, want 6", snap.Dropped)
	}
	if snap.Iterations != 10 {
		t.Errorf("Iterations = %d, want 10", snap.Iterations)
	}
}

// TestProbeRoundTrip: a probe threaded through WithProbe/ProbeFrom is the
// same object, and a kernel run against it records real iteration events.
func TestProbeRoundTrip(t *testing.T) {
	p := NewProbe(0)
	ctx := WithProbe(context.Background(), p)
	if got := ProbeFrom(ctx); got != p {
		t.Fatalf("ProbeFrom returned %p, want %p", got, p)
	}
	// WithProbe(nil) must not clobber an inherited probe decision.
	if got := ProbeFrom(WithProbe(context.Background(), nil)); got != nil {
		t.Fatalf("WithProbe(nil) produced a probe: %p", got)
	}

	// Undirected 5-path 0-1-2-3-4.
	n := 5
	var rows, cols []int
	var vals []float64
	for i := 0; i < n-1; i++ {
		rows = append(rows, i, i+1)
		cols = append(cols, i+1, i)
		vals = append(vals, 1, 1)
	}
	A, err := grb.MatrixFromTuples(n, n, rows, cols, vals, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := mustGraph(t, A, AdjacencyUndirected)
	if err := g.PropertyAT(); err != nil && !IsWarning(err) {
		t.Fatal(err)
	}
	if err := g.PropertyRowDegree(); err != nil && !IsWarning(err) {
		t.Fatal(err)
	}
	if _, _, err := BreadthFirstSearch(ctx, g, 0, true, true); err != nil {
		t.Fatal(err)
	}
	snap := p.Snapshot()
	// A 5-path from one end has 4 BFS expansion levels plus the empty
	// terminating frontier.
	if snap.Iterations < 4 {
		t.Fatalf("BFS on a 5-path recorded %d iterations, want >= 4", snap.Iterations)
	}
	for _, it := range snap.Iters {
		if it.Direction != "push" && it.Direction != "pull" {
			t.Errorf("iteration %d has direction %q", it.Iter, it.Direction)
		}
	}
}
