package lagraph

import (
	"context"
	"sync"
)

// Kernel introspection. A Probe rides the context into a kernel's entry
// point and collects per-iteration events — BFS/BC frontier sizes
// and push-vs-pull direction decisions, PageRank residuals and
// convergence status, SSSP bucket frontiers and relaxation counts,
// FastSV hooking rounds, tc/lcc nnz processed and the method chosen —
// turning the paper's "algorithms as analyzable GraphBLAS operations"
// claim into data a caller can inspect.
//
// The probe is strictly opt-in and nil-safe: every method on a nil
// *Probe returns immediately, ProbeFrom on a probe-less context yields
// nil, and kernels guard any stat that would cost real work (an extra
// NVals on a hot vector) behind Enabled(). A kernel run without a probe
// therefore performs zero additional allocations — pinned by
// TestNilProbeZeroAlloc with testing.AllocsPerRun.

// IterStat is one iteration's record. Which fields are populated depends
// on the kernel: BFS/BC fill Frontier and Direction, PageRank fills
// Residual, SSSP fills Frontier (bucket occupancy) and Work
// (relaxations), FastSV fills Work (changed grandparents).
type IterStat struct {
	// Iter is the kernel's own iteration counter: the BFS level, the
	// PageRank sweep, the SSSP bucket index, the FastSV round.
	Iter int `json:"iter"`
	// Frontier is the active-set size this iteration.
	Frontier int `json:"frontier,omitempty"`
	// Direction is the push-vs-pull decision ("push" or "pull").
	Direction string `json:"dir,omitempty"`
	// Residual is the convergence measure (PageRank rank 1-norm delta).
	Residual float64 `json:"residual,omitempty"`
	// Work counts operations performed (relaxations, changed entries).
	Work int64 `json:"work,omitempty"`
}

// DefaultProbeIters bounds the per-iteration event list of NewProbe(0):
// deep traversals (a high-diameter road network) keep their first events
// and count the rest in Dropped instead of growing without bound.
const DefaultProbeIters = 512

// Probe collects one kernel run's introspection events. The zero value
// is not used; construct with NewProbe. A nil *Probe is inert.
type Probe struct {
	mu       sync.Mutex
	max      int
	iters    []IterStat
	dropped  int
	counters map[string]int64
	method   string
	// converged: 0 unknown, 1 true, 2 false.
	converged int
}

// NewProbe returns a probe retaining at most maxIters per-iteration
// events (<= 0 selects DefaultProbeIters).
func NewProbe(maxIters int) *Probe {
	if maxIters <= 0 {
		maxIters = DefaultProbeIters
	}
	return &Probe{max: maxIters}
}

// Enabled reports whether the probe is live. Kernels use it to guard
// stats whose mere computation costs something (an extra NVals), keeping
// the disabled path at literally zero added work.
func (p *Probe) Enabled() bool { return p != nil }

// Iter records one iteration event. Nil-safe; beyond the retention bound
// events are counted, not kept.
func (p *Probe) Iter(st IterStat) {
	if p == nil {
		return
	}
	p.mu.Lock()
	if len(p.iters) < p.max {
		p.iters = append(p.iters, st)
	} else {
		p.dropped++
	}
	p.mu.Unlock()
}

// Add accumulates a named work counter (relaxations, nnz processed).
// Nil-safe.
func (p *Probe) Add(name string, v int64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	if p.counters == nil {
		p.counters = make(map[string]int64)
	}
	p.counters[name] += v
	p.mu.Unlock()
}

// SetMethod records the formulation the kernel chose (tc's sandia-lut,
// the BFS's overall strategy). Nil-safe.
func (p *Probe) SetMethod(m string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.method = m
	p.mu.Unlock()
}

// SetConverged records whether an iterative kernel reached its
// convergence criterion (as opposed to exhausting its budget). Nil-safe.
func (p *Probe) SetConverged(c bool) {
	if p == nil {
		return
	}
	p.mu.Lock()
	if c {
		p.converged = 1
	} else {
		p.converged = 2
	}
	p.mu.Unlock()
}

// ProbeSnapshot is the immutable, JSON-friendly view of a finished run's
// probe. Iterations counts every Iter call, including dropped ones.
type ProbeSnapshot struct {
	Iterations int              `json:"iterations"`
	Converged  *bool            `json:"converged,omitempty"`
	Method     string           `json:"method,omitempty"`
	Iters      []IterStat       `json:"iters,omitempty"`
	Dropped    int              `json:"iters_dropped,omitempty"`
	Counters   map[string]int64 `json:"counters,omitempty"`
}

// Snapshot renders the probe. Nil-safe: a nil probe yields the zero
// snapshot.
func (p *Probe) Snapshot() ProbeSnapshot {
	if p == nil {
		return ProbeSnapshot{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	snap := ProbeSnapshot{
		Iterations: len(p.iters) + p.dropped,
		Method:     p.method,
		Dropped:    p.dropped,
	}
	if len(p.iters) > 0 {
		snap.Iters = append([]IterStat(nil), p.iters...)
	}
	if p.converged != 0 {
		c := p.converged == 1
		snap.Converged = &c
	}
	if len(p.counters) > 0 {
		snap.Counters = make(map[string]int64, len(p.counters))
		for k, v := range p.counters {
			snap.Counters[k] = v
		}
	}
	return snap
}

type probeKey struct{}

// WithProbe returns ctx carrying the probe; kernels retrieve it with
// ProbeFrom. A nil probe returns ctx unchanged.
func WithProbe(ctx context.Context, p *Probe) context.Context {
	if p == nil {
		return ctx
	}
	return context.WithValue(ctx, probeKey{}, p)
}

// ProbeFrom returns the probe carried by ctx, or nil. The nil return is
// directly usable: every Probe method is nil-safe.
func ProbeFrom(ctx context.Context) *Probe {
	p, _ := ctx.Value(probeKey{}).(*Probe)
	return p
}
