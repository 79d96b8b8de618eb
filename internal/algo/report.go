package algo

import (
	"fmt"
	"maps"
	"slices"

	"lagraph/internal/lagraph"
)

// RunReport is the structured "explain" record of one kernel invocation:
// the probe's per-iteration trace plus the wall-clock split between
// property materialization and the kernel proper. It rides along with the
// job result (under the reserved "report" envelope key) and is rendered by
// ?explain=1 and GET /jobs/{id}/report.
type RunReport struct {
	// Algorithm is the catalog name the report describes.
	Algorithm string `json:"algorithm"`
	// ProbeSnapshot is the kernel's own record: iteration count (including
	// any beyond the probe's retention bound), convergence, the method it
	// chose, the retained per-iteration trace and its named work counters.
	lagraph.ProbeSnapshot
	// PropertySeconds is the wall time spent materializing cached graph
	// properties before the kernel ran (0 when everything was cached).
	PropertySeconds float64 `json:"property_seconds"`
	// KernelSeconds is the kernel's own wall time.
	KernelSeconds float64 `json:"kernel_seconds"`
}

// NewReport assembles a report from a finished run's probe (nil-safe) and
// the caller's timings.
func NewReport(algorithm string, p *lagraph.Probe, propertySeconds, kernelSeconds float64) *RunReport {
	return &RunReport{
		Algorithm:       algorithm,
		ProbeSnapshot:   p.Snapshot(),
		PropertySeconds: propertySeconds,
		KernelSeconds:   kernelSeconds,
	}
}

// NonEmpty reports whether the kernel actually recorded introspection
// data: any iteration events, work counters, or a chosen method. Wall
// times alone do not count — they are measured by the harness, not the
// kernel — so the acceptance check "every cataloged algorithm returns a
// non-empty report" proves the probe reached the kernel.
func (r *RunReport) NonEmpty() bool {
	if r == nil {
		return false
	}
	return r.Iterations > 0 || len(r.Counters) > 0 || r.Method != ""
}

// spanEventBatch is how many iterations one tracer span event summarizes:
// deep traversals produce a handful of events, not thousands.
const spanEventBatch = 64

// SpanEvents renders the report as (name, value) pairs for the tracer's
// span-event list — one aggregated event per batch of iterations plus a
// summary line. Returned as plain string pairs so this package does not
// import the tracer.
func (r *RunReport) SpanEvents() [][2]string {
	if r == nil {
		return nil
	}
	var out [][2]string
	for lo := 0; lo < len(r.Iters); lo += spanEventBatch {
		hi := lo + spanEventBatch
		if hi > len(r.Iters) {
			hi = len(r.Iters)
		}
		batch := r.Iters[lo:hi]
		var frontier, work int64
		dirs := map[string]int{}
		for _, it := range batch {
			frontier += int64(it.Frontier)
			work += it.Work
			if it.Direction != "" {
				dirs[it.Direction]++
			}
		}
		v := fmt.Sprintf("n=%d frontier_sum=%d work_sum=%d", len(batch), frontier, work)
		if n := dirs["push"]; n > 0 {
			v += fmt.Sprintf(" push=%d", n)
		}
		if n := dirs["pull"]; n > 0 {
			v += fmt.Sprintf(" pull=%d", n)
		}
		if last := batch[len(batch)-1]; last.Residual != 0 {
			v += fmt.Sprintf(" residual=%.3g", last.Residual)
		}
		out = append(out, [2]string{
			fmt.Sprintf("iters[%d-%d]", batch[0].Iter, batch[len(batch)-1].Iter), v,
		})
	}
	summary := fmt.Sprintf("iterations=%d", r.Iterations)
	if r.Method != "" {
		summary += " method=" + r.Method
	}
	if r.Converged != nil {
		summary += fmt.Sprintf(" converged=%t", *r.Converged)
	}
	for _, k := range slices.Sorted(maps.Keys(r.Counters)) {
		summary += fmt.Sprintf(" %s=%d", k, r.Counters[k])
	}
	out = append(out, [2]string{"report", summary})
	return out
}
