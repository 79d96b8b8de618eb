package main

import (
	"encoding/json"
	"fmt"
	"math"

	"lagraph/internal/gap"
)

// query is one kernel invocation with GAP-convention parameters, runnable
// three ways: as an HTTP request body, as catalog parameters for a direct
// run, and on the GAP baseline (the calibration and the oracle).
type query struct {
	k       int
	source  int32   // bfs, sssp
	sources []int32 // bc: the GAP batch of 4
	tol     float64 // pagerank
	limit   int     // = n, so responses carry whole vectors for the oracle
}

const (
	prDamping = 0.85
	prMaxIter = 20
	ssspDelta = 64
)

// params is the request in the catalog's parameter schema.
func (q query) params() map[string]any {
	switch q.k {
	case kBFS:
		return map[string]any{"source": int(q.source), "limit": q.limit}
	case kBC:
		s := make([]int, len(q.sources))
		for i, v := range q.sources {
			s[i] = int(v)
		}
		return map[string]any{"sources": s, "limit": q.limit}
	case kPR:
		return map[string]any{"damping": prDamping, "tol": q.tol, "max_iter": prMaxIter, "limit": q.limit}
	case kCC:
		return map[string]any{"limit": q.limit}
	case kSSSP:
		return map[string]any{"source": int(q.source), "delta": ssspDelta, "limit": q.limit}
	}
	return map[string]any{}
}

func (q query) body() []byte {
	b, err := json.Marshal(q.params())
	if err != nil {
		panic(err) // only JSON-native types above
	}
	return b
}

// want is the GAP baseline's answer to a query.
type want struct {
	parents []int32 // bfs (timed run)
	dist    []float32
	comp    []int32
	ranks   []float64
	bc      []float64
	tri     int64
}

// runGAP runs the baseline once on the mirror's GAP graph.
func (q query) runGAP(g *gap.Graph) want {
	switch q.k {
	case kBFS:
		return want{parents: gap.BFSParents(g, q.source)}
	case kBC:
		return want{bc: gap.BC(g, q.sources)}
	case kPR:
		ranks, _ := gap.PageRank(g, prDamping, q.tol, prMaxIter)
		return want{ranks: ranks}
	case kCC:
		return want{comp: gap.ConnectedComponents(g)}
	case kSSSP:
		return want{dist: gap.SSSPDelta(g, q.source, ssspDelta)}
	default:
		return want{tri: gap.TriangleCount(g)}
	}
}

// vec is the wire shape of a result vector (algo.VecSummary).
type vec struct {
	NVals   int `json:"nvals"`
	Entries []struct {
		I int     `json:"i"`
		V float64 `json:"v"`
	} `json:"entries"`
	Truncated bool `json:"truncated"`
}

// answer is the union of the six kernels' response envelopes.
type answer struct {
	Parent     *vec  `json:"parent"`
	Centrality *vec  `json:"centrality"`
	Ranks      *vec  `json:"ranks"`
	Labels     *vec  `json:"labels"`
	Distances  *vec  `json:"distances"`
	Triangles  int64 `json:"triangles"`
}

// dense spreads a result vector over n slots; absent entries read fill.
func (v *vec) dense(n int, fill float64) ([]float64, error) {
	if v == nil {
		return nil, fmt.Errorf("result vector missing")
	}
	if v.Truncated || len(v.Entries) != v.NVals {
		return nil, fmt.Errorf("result vector truncated (%d of %d entries)", len(v.Entries), v.NVals)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = fill
	}
	for _, e := range v.Entries {
		if e.I < 0 || e.I >= n {
			return nil, fmt.Errorf("entry index %d outside [0,%d)", e.I, n)
		}
		out[e.I] = e.V
	}
	return out, nil
}

// verify checks a decoded response against the baseline's answer on the
// mirror: BFS depths, SSSP distances, the CC partition and the triangle
// count exactly; PageRank and BC within floating-point tolerance.
func (q query) verify(body []byte, w want, m *mirror, g *gap.Graph) error {
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return err
	}
	n := m.n
	switch q.k {
	case kBFS:
		// Parents may differ between two valid BFS trees; depths may not.
		// A parent vector is right iff every reached vertex's parent is a
		// neighbour exactly one level closer to the source.
		depth := gap.BFSLevels(g, q.source)
		parent, err := a.Parent.dense(n, -1)
		if err != nil {
			return err
		}
		for v := 0; v < n; v++ {
			p := int32(parent[v])
			switch {
			case (p >= 0) != (depth[v] >= 0):
				return fmt.Errorf("bfs: vertex %d reached=%v, baseline depth %d", v, p >= 0, depth[v])
			case p < 0:
			case int32(v) == q.source:
				if p != q.source {
					return fmt.Errorf("bfs: source parent %d", p)
				}
			default:
				if _, ok := m.find(p, int32(v)); !ok || depth[p] != depth[v]-1 {
					return fmt.Errorf("bfs: vertex %d (depth %d) has parent %d (depth %d, edge %v)",
						v, depth[v], p, depth[p], ok)
				}
			}
		}
	case kSSSP:
		dist, err := a.Distances.dense(n, math.Inf(1))
		if err != nil {
			return err
		}
		for v := range dist {
			if dist[v] != float64(w.dist[v]) {
				return fmt.Errorf("sssp: dist(%d) = %v, baseline %v", v, dist[v], w.dist[v])
			}
		}
	case kCC:
		labels, err := a.Labels.dense(n, -1)
		if err != nil {
			return err
		}
		toBase, toOurs := map[float64]int32{}, map[int32]float64{}
		for v := range labels {
			if b, ok := toBase[labels[v]]; ok && b != w.comp[v] {
				return fmt.Errorf("cc: vertex %d splits a served component", v)
			}
			if l, ok := toOurs[w.comp[v]]; ok && l != labels[v] {
				return fmt.Errorf("cc: vertex %d splits a baseline component", v)
			}
			toBase[labels[v]], toOurs[w.comp[v]] = w.comp[v], labels[v]
		}
	case kTC:
		if a.Triangles != w.tri {
			return fmt.Errorf("tc: %d triangles, baseline %d", a.Triangles, w.tri)
		}
	case kPR:
		ranks, err := a.Ranks.dense(n, 0)
		if err != nil {
			return err
		}
		var l1 float64
		for v := range ranks {
			l1 += math.Abs(ranks[v] - w.ranks[v])
		}
		if !(l1 < 1e-6) {
			return fmt.Errorf("pagerank: L1 distance to baseline %g", l1)
		}
	case kBC:
		bc, err := a.Centrality.dense(n, 0)
		if err != nil {
			return err
		}
		for v := range bc {
			if math.Abs(bc[v]-w.bc[v]) > 1e-6*(1+math.Abs(w.bc[v])) {
				return fmt.Errorf("bc: centrality(%d) = %v, baseline %v", v, bc[v], w.bc[v])
			}
		}
	}
	return nil
}
