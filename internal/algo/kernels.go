package algo

import (
	"context"
	"fmt"

	"lagraph/internal/grb"
	"lagraph/internal/lagraph"
)

// Builtin returns a fresh catalog with every built-in kernel registered:
// the six GAP kernels in Basic mode, the Advanced-tier variants
// (bfs.level, pagerank.gx, cc.advanced, tc.advanced), and the local
// clustering coefficient. Each registration is self-contained — adding
// an algorithm here (or registering one into a Catalog at runtime) is
// the ONLY step needed for it to reach the HTTP API, async jobs with
// correct cache keying, introspection, the benchmark harness and the
// generated README reference.
func Builtin() *Catalog {
	c := NewCatalog()
	registerBFS(c)
	registerPageRank(c)
	registerCC(c)
	registerSSSP(c)
	registerTC(c)
	registerBC(c)
	registerBFSLevel(c)
	registerPageRankGX(c)
	registerCCAdvanced(c)
	registerTCAdvanced(c)
	registerLCC(c)
	return c
}

// Shared parameter specs.

func limitSpec() Spec {
	return Spec{
		Name: "limit", Type: TInt, Default: 32, Min: F64(1), Max: F64(1 << 20),
		Doc: "maximum entries echoed per result vector",
	}
}

func sourceSpec() Spec {
	return Spec{
		Name: "source", Type: TInt, Default: 0, Min: F64(0),
		Doc: "source vertex id",
	}
}

// staticProps builds a graph-independent Properties function.
func staticProps(ps ...lagraph.Property) func(*Graph) []lagraph.Property {
	return func(*Graph) []lagraph.Property { return ps }
}

// EnsureProperties materializes a descriptor's required properties
// directly on a graph — the library-mode analogue of the registry entry's
// EnsureProperties, used by the benchmark harness and tests that run
// catalog kernels without a registry.
func EnsureProperties(d *Descriptor, g *Graph) error {
	for _, p := range d.RequiredProperties(g) {
		if _, err := g.Ensure(p); err != nil {
			return err
		}
	}
	return nil
}

// checkSource validates a vertex id against the graph's node count,
// attributing the failure to the named parameter.
func checkSource(g *Graph, v int, field string) error {
	if v < 0 || v >= g.NumNodes() {
		return Paramf(field, "vertex %d outside [0,%d)", v, g.NumNodes())
	}
	return nil
}

// warnOK strips the lagraph warning wrapper (e.g. WarnCacheNotComputed)
// that Basic-mode kernels use to signal benign property caching.
func warnOK(err error) error {
	if err != nil && !lagraph.IsWarning(err) {
		return err
	}
	return nil
}

func registerBFS(c *Catalog) {
	c.MustRegister(Descriptor{
		Name: "bfs",
		Tier: TierBasic,
		Doc: "Direction-optimizing breadth-first search (paper §IV-A, Algorithm 2): " +
			"parent vector of the BFS tree from a source vertex, optionally with hop levels. " +
			"Push steps run on the any.secondi semiring; the pull direction uses the cached transpose.",
		Params: []Spec{
			sourceSpec(),
			{Name: "level", Type: TBool, Default: false, Doc: "also return BFS levels (hop distances)"},
			limitSpec(),
		},
		Properties: staticProps(lagraph.PropAT, lagraph.PropRowDegree),
		Run: func(ctx context.Context, g *Graph, p Params) (Result, error) {
			src := p.Int("source")
			if err := checkSource(g, src, "source"); err != nil {
				return nil, err
			}
			wantLevel := p.Bool("level")
			parent, level, err := lagraph.BreadthFirstSearch(ctx, g, src, true, wantLevel)
			if err = warnOK(err); err != nil {
				return nil, err
			}
			res := Result{
				"reached": parent.NVals(),
				"parent":  Summarize(parent, p.Int("limit")),
			}
			if wantLevel {
				res["level"] = Summarize(level, p.Int("limit"))
			}
			return res, nil
		},
	})
}

func pagerankParams() []Spec {
	return []Spec{
		{Name: "damping", Type: TFloat, Default: 0.85, Min: F64(0), Max: F64(1),
			MinExcl: true, MaxExcl: true, Doc: "damping factor, in (0,1)"},
		{Name: "tol", Type: TFloat, Default: 1e-4,
			Doc: "convergence threshold on the rank 1-norm delta (negative forces the full sweep budget)"},
		{Name: "max_iter", Type: TInt, Default: 100, Min: F64(1), Doc: "power-iteration budget"},
	}
}

func registerPageRank(c *Catalog) {
	c.MustRegister(Descriptor{
		Name: "pagerank",
		Tier: TierBasic,
		Doc: "PageRank (paper §IV-C, Algorithm 4) on the plus.second semiring over the cached transpose, " +
			"as the GAP benchmark's pr.cc computes it (sinks leak rank). " +
			"pagerank.gx is the LDBC Graphalytics formulation, which redistributes sink rank every iteration.",
		Params:     append(pagerankParams(), limitSpec()),
		Properties: staticProps(lagraph.PropAT, lagraph.PropRowDegree),
		Run: func(ctx context.Context, g *Graph, p Params) (Result, error) {
			ranks, iters, err := lagraph.PageRankGAP(ctx, g, p.Float("damping"), p.Float("tol"), p.Int("max_iter"))
			if err = warnOK(err); err != nil {
				return nil, err
			}
			return Result{
				"iterations": iters,
				"ranks":      Summarize(ranks, p.Int("limit")),
			}, nil
		},
	})
}

func registerCC(c *Catalog) {
	c.MustRegister(Descriptor{
		Name: "cc",
		Tier: TierBasic,
		Doc: "Connected components via FastSV (paper §IV-F, Algorithm 7). " +
			"Directed graphs are handled as weak components on the symmetrised pattern A ∪ Aᵀ.",
		Params: []Spec{limitSpec()},
		Properties: func(g *Graph) []lagraph.Property {
			// The symmetrised pattern needs the transpose, and knowing the
			// pattern is already symmetric skips the union entirely. For
			// undirected graphs nothing is required. A nil graph is the
			// introspection probe: report the superset.
			if g == nil || g.Kind == lagraph.AdjacencyDirected {
				return []lagraph.Property{lagraph.PropAT, lagraph.PropSymmetry}
			}
			return nil
		},
		Run: func(ctx context.Context, g *Graph, p Params) (Result, error) {
			labels, err := lagraph.ConnectedComponents(ctx, g)
			if err = warnOK(err); err != nil {
				return nil, err
			}
			return Result{
				"components": countDistinct(labels),
				"labels":     Summarize(labels, p.Int("limit")),
			}, nil
		},
	})
}

func registerSSSP(c *Catalog) {
	c.MustRegister(Descriptor{
		Name: "sssp",
		Tier: TierBasic,
		Doc: "Single-source shortest paths by delta-stepping (paper §IV-D, Algorithm 5) " +
			"on the min.plus semiring. Unreachable vertices are omitted from the result.",
		Params: []Spec{
			sourceSpec(),
			{Name: "delta", Type: TFloat, Default: 64, Min: F64(0), MinExcl: true,
				Doc: "bucket width (64 suits the GAP convention of uniform [1,255] weights)"},
			limitSpec(),
		},
		Run: func(ctx context.Context, g *Graph, p Params) (Result, error) {
			src := p.Int("source")
			if err := checkSource(g, src, "source"); err != nil {
				return nil, err
			}
			dist, err := lagraph.SSSPDeltaStepping(ctx, g, src, p.Float("delta"))
			if err = warnOK(err); err != nil {
				return nil, err
			}
			// +inf (unreachable) cannot ride JSON; report reachable only.
			sum := SummarizeIf(dist, p.Int("limit"), func(_ int, d float64) bool {
				return lagraph.Reachable(d)
			})
			return Result{"reached": sum.NVals, "distances": sum}, nil
		},
	})
}

func registerTC(c *Catalog) {
	c.MustRegister(Descriptor{
		Name: "tc",
		Tier: TierBasic,
		Doc: "Triangle count (paper §IV-E, Algorithm 6): C⟨s(L)⟩ = L plus.pair Uᵀ with the " +
			"degree-sort heuristic. Self-edges are stripped on a temporary copy.",
		Undirected: true,
		Properties: staticProps(lagraph.PropNDiag, lagraph.PropRowDegree),
		Run: func(ctx context.Context, g *Graph, _ Params) (Result, error) {
			count, err := lagraph.TriangleCount(ctx, g)
			if err = warnOK(err); err != nil {
				return nil, err
			}
			return Result{"triangles": count}, nil
		},
	})
}

func registerBC(c *Catalog) {
	c.MustRegister(Descriptor{
		Name: "bc",
		Tier: TierBasic,
		Doc: "Batched betweenness centrality (paper §IV-B, Algorithm 3): forward frontier " +
			"sweeps and backward dependence accumulation for a batch of source vertices.",
		Params: []Spec{
			sourceSpec(),
			{Name: "sources", Type: TIntList, Min: F64(0), MaxItems: 64,
				Doc: "source batch (defaults to [source]; the GAP convention is 4)"},
			limitSpec(),
		},
		Properties: staticProps(lagraph.PropAT),
		Run: func(ctx context.Context, g *Graph, p Params) (Result, error) {
			sources := p.Ints("sources")
			if len(sources) == 0 {
				sources = []int{p.Int("source")}
				if err := checkSource(g, sources[0], "source"); err != nil {
					return nil, err
				}
			}
			for _, v := range sources {
				if err := checkSource(g, v, "sources"); err != nil {
					return nil, err
				}
			}
			cent, err := lagraph.BetweennessCentralityAdvanced(ctx, g, sources)
			if err = warnOK(err); err != nil {
				return nil, err
			}
			return Result{"centrality": Summarize(cent, p.Int("limit"))}, nil
		},
	})
}

func registerBFSLevel(c *Catalog) {
	c.MustRegister(Descriptor{
		Name: "bfs.level",
		Tier: TierAdvanced,
		Doc: "Level-only direction-optimizing BFS: the hop distance of every reached vertex, " +
			"skipping the parent vector entirely. The kernel computes nothing itself; its declared " +
			"AT and RowDegree properties are materialized before it runs.",
		Params:     []Spec{sourceSpec(), limitSpec()},
		Properties: staticProps(lagraph.PropAT, lagraph.PropRowDegree),
		Run: func(ctx context.Context, g *Graph, p Params) (Result, error) {
			src := p.Int("source")
			if err := checkSource(g, src, "source"); err != nil {
				return nil, err
			}
			_, level, err := lagraph.BreadthFirstSearchAdvanced(ctx, g, src, false, true)
			if err = warnOK(err); err != nil {
				return nil, err
			}
			return Result{
				"reached": level.NVals(),
				"level":   Summarize(level, p.Int("limit")),
			}, nil
		},
	})
}

func registerPageRankGX(c *Catalog) {
	c.MustRegister(Descriptor{
		Name: "pagerank.gx",
		Tier: TierAdvanced,
		Doc: "Graphalytics PageRank as a first-class entry: dangling-vertex rank is gathered " +
			"and redistributed every iteration, keeping the ranks a probability distribution. " +
			"Reads the declared AT and RowDegree properties, materialized before it runs.",
		Params:     append(pagerankParams(), limitSpec()),
		Properties: staticProps(lagraph.PropAT, lagraph.PropRowDegree),
		Run: func(ctx context.Context, g *Graph, p Params) (Result, error) {
			ranks, iters, err := lagraph.PageRankGX(ctx, g, p.Float("damping"), p.Float("tol"), p.Int("max_iter"))
			if err = warnOK(err); err != nil {
				return nil, err
			}
			return Result{
				"iterations": iters,
				"ranks":      Summarize(ranks, p.Int("limit")),
			}, nil
		},
	})
}

func registerCCAdvanced(c *Catalog) {
	c.MustRegister(Descriptor{
		Name: "cc.advanced",
		Tier: TierAdvanced,
		Doc: "FastSV directly on G.A with no symmetrisation: the pattern must be symmetric " +
			"(undirected graph, or ASymmetricPattern cached true — a directed graph whose " +
			"pattern is not symmetric is rejected).",
		Params: []Spec{limitSpec()},
		Properties: func(g *Graph) []lagraph.Property {
			if g == nil || g.Kind == lagraph.AdjacencyDirected {
				return []lagraph.Property{lagraph.PropSymmetry}
			}
			return nil
		},
		Run: func(ctx context.Context, g *Graph, p Params) (Result, error) {
			labels, err := lagraph.ConnectedComponentsAdvanced(ctx, g)
			if err = warnOK(err); err != nil {
				return nil, err
			}
			return Result{
				"components": countDistinct(labels),
				"labels":     Summarize(labels, p.Int("limit")),
			}, nil
		},
	})
}

// tcMethods maps the public method names onto the lagraph formulations.
var tcMethods = map[string]lagraph.TCMethod{
	"sandia-lut": lagraph.TCSandiaLUT,
	"sandia-ll":  lagraph.TCSandiaLL,
	"burkhardt":  lagraph.TCBurkhardt,
	"cohen":      lagraph.TCCohen,
}

func registerTCAdvanced(c *Catalog) {
	c.MustRegister(Descriptor{
		Name: "tc.advanced",
		Tier: TierAdvanced,
		Doc: "Triangle counting with explicit method and presort control (the LAGraph " +
			"experimental family): sandia-lut is Algorithm 6's masked dot kernel, sandia-ll " +
			"the saxpy form, burkhardt Σ((A²)∩A)/6, cohen Σ((L·U)∩A)/2. Assumes no " +
			"self-edges; presort requires RowDegree cached.",
		Undirected: true,
		Params: []Spec{
			{Name: "method", Type: TString, Default: "sandia-lut",
				Enum: []string{"sandia-lut", "sandia-ll", "burkhardt", "cohen"},
				Doc:  "triangle-counting formulation"},
			{Name: "presort", Type: TBool, Default: false,
				Doc: "count in ascending degree rank order (L and U selected by each vertex's rank; no permuted copy)"},
		},
		Properties: staticProps(lagraph.PropRowDegree),
		Run: func(ctx context.Context, g *Graph, p Params) (Result, error) {
			if g.Kind != lagraph.AdjacencyUndirected {
				return nil, fmt.Errorf("tc.advanced: requires an undirected graph")
			}
			method := tcMethods[p.String("method")]
			count, err := lagraph.TriangleCountAdvanced(ctx, g, method, p.Bool("presort"))
			if err = warnOK(err); err != nil {
				return nil, err
			}
			return Result{"triangles": count, "method": p.String("method")}, nil
		},
	})
}

func registerLCC(c *Catalog) {
	c.MustRegister(Descriptor{
		Name: "lcc",
		Tier: TierBasic,
		Doc: "Local clustering coefficient (LAGraph's LAGraph_lcc): per vertex, the fraction " +
			"of its neighbour pairs that are connected — 2·tri(v)/(deg(v)·(deg(v)−1)) — via one " +
			"masked plus.pair multiply C⟨s(A)⟩ = A·A and a row reduction. Vertices in no " +
			"triangle are omitted (coefficient 0).",
		Undirected: true,
		Params:     []Spec{limitSpec()},
		Properties: staticProps(lagraph.PropNDiag, lagraph.PropRowDegree),
		Run: func(ctx context.Context, g *Graph, p Params) (Result, error) {
			lcc, err := lagraph.LocalClusteringCoefficient(ctx, g)
			if err = warnOK(err); err != nil {
				return nil, err
			}
			sum := 0.0
			lcc.Iterate(func(_ int, x float64) { sum += x })
			mean := 0.0
			if n := g.NumNodes(); n > 0 {
				mean = sum / float64(n)
			}
			return Result{
				"mean":         mean, // averaged over all vertices, absent = 0
				"coefficients": Summarize(lcc, p.Int("limit")),
			}, nil
		},
	})
}

// countDistinct counts distinct labels in a component vector.
func countDistinct(v *grb.Vector[int64]) int {
	seen := map[int64]struct{}{}
	v.Iterate(func(_ int, x int64) { seen[x] = struct{}{} })
	return len(seen)
}
