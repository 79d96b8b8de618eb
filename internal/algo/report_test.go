package algo

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lagraph/internal/lagraph"
	"lagraph/internal/parallel"
)

const reportGoldenDir = "testdata/reports"

// TestCatalogReportGolden pins the introspection trace of every cataloged
// algorithm on the deterministic golden graph: exact iteration/frontier/
// direction sequences, residuals, work counters and method choice. Wall
// times are excluded (the harness supplies them as zero here). Driven by
// the catalog like the conformance suite, it also guards coverage both
// ways: a kernel whose probe records nothing fails NonEmpty, and an
// orphan report file fails the reverse check. Regenerate with:
//
//	go test ./internal/algo -run TestCatalogReportGolden -update
func TestCatalogReportGolden(t *testing.T) {
	prev := parallel.SetMaxThreads(1)
	defer parallel.SetMaxThreads(prev)

	c := Builtin()
	g := goldenGraph(t)
	covered := map[string]bool{}
	for _, name := range c.Names() {
		d, _ := c.Get(name)
		covered[name] = true
		t.Run(name, func(t *testing.T) {
			p, err := d.Validate(map[string]any{})
			if err != nil {
				t.Fatalf("defaults do not validate: %v", err)
			}
			if err := EnsureProperties(d, g); err != nil {
				t.Fatalf("EnsureProperties: %v", err)
			}
			prb := lagraph.NewProbe(0)
			ctx := lagraph.WithProbe(context.Background(), prb)
			if _, err := d.Run(ctx, g, p); err != nil && !lagraph.IsWarning(err) {
				t.Fatalf("Run: %v", err)
			}
			rep := NewReport(name, prb, 0, 0)
			if !rep.NonEmpty() {
				t.Fatalf("algorithm %q produced an empty run report: its kernel never touched the probe", name)
			}
			rendered, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				t.Fatalf("report not JSON-renderable: %v", err)
			}
			got := string(rendered) + "\n"

			path := filepath.Join(reportGoldenDir, name+".golden")
			if *updateGolden {
				if err := os.MkdirAll(reportGoldenDir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("algorithm %q has no report golden "+
					"(run `go test ./internal/algo -run TestCatalogReportGolden -update` to create %s): %v",
					name, path, err)
			}
			if got != string(want) {
				t.Errorf("%s report diverged from %s\n got: %s\nwant: %s", name, path, got, want)
			}
		})
	}

	if *updateGolden {
		return
	}
	entries, err := os.ReadDir(reportGoldenDir)
	if err != nil {
		t.Fatalf("report golden dir: %v", err)
	}
	for _, ent := range entries {
		name := strings.TrimSuffix(ent.Name(), ".golden")
		if !covered[name] {
			t.Errorf("orphan report golden %s: no catalog entry %q", ent.Name(), name)
		}
	}
}

func TestRunReportNonEmpty(t *testing.T) {
	var nilRep *RunReport
	if nilRep.NonEmpty() {
		t.Error("nil report claims NonEmpty")
	}
	if (&RunReport{KernelSeconds: 1.5}).NonEmpty() {
		t.Error("wall time alone should not make a report non-empty")
	}
	if !(&RunReport{ProbeSnapshot: lagraph.ProbeSnapshot{Iterations: 1}}).NonEmpty() {
		t.Error("iterations should make a report non-empty")
	}
	if !(&RunReport{ProbeSnapshot: lagraph.ProbeSnapshot{Method: "sandia-lut"}}).NonEmpty() {
		t.Error("method should make a report non-empty")
	}
	if !(&RunReport{ProbeSnapshot: lagraph.ProbeSnapshot{Counters: map[string]int64{"nnz": 3}}}).NonEmpty() {
		t.Error("counters should make a report non-empty")
	}
}

func TestRunReportSpanEvents(t *testing.T) {
	conv := true
	rep := &RunReport{Algorithm: "bfs", ProbeSnapshot: lagraph.ProbeSnapshot{
		Iterations: 130,
		Converged:  &conv,
		Method:     "diropt",
		Counters:   map[string]int64{"relaxations": 9, "nnz": 4},
	}}
	for i := 1; i <= 130; i++ {
		dir := "push"
		if i%2 == 0 {
			dir = "pull"
		}
		rep.Iters = append(rep.Iters, lagraph.IterStat{Iter: i, Frontier: i, Direction: dir, Work: 2})
	}
	ev := rep.SpanEvents()
	// 130 iterations batch into 64+64+2, plus the summary line.
	if len(ev) != 4 {
		t.Fatalf("got %d span events, want 4: %v", len(ev), ev)
	}
	if ev[0][0] != "iters[1-64]" {
		t.Errorf("first batch named %q", ev[0][0])
	}
	if !strings.Contains(ev[0][1], "n=64") || !strings.Contains(ev[0][1], "push=32") {
		t.Errorf("first batch value %q", ev[0][1])
	}
	if ev[2][0] != "iters[129-130]" {
		t.Errorf("last batch named %q", ev[2][0])
	}
	sum := ev[3]
	if sum[0] != "report" {
		t.Errorf("summary named %q", sum[0])
	}
	for _, frag := range []string{"iterations=130", "method=diropt", "converged=true", "nnz=4", "relaxations=9"} {
		if !strings.Contains(sum[1], frag) {
			t.Errorf("summary %q missing %q", sum[1], frag)
		}
	}
	// Counter keys render sorted for stable span events.
	if strings.Index(sum[1], "nnz=") > strings.Index(sum[1], "relaxations=") {
		t.Errorf("summary counters not sorted: %q", sum[1])
	}

	if (*RunReport)(nil).SpanEvents() != nil {
		t.Error("nil report should yield no span events")
	}
}
