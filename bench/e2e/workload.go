package main

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"lagraph/internal/gap"
	"lagraph/internal/gen"
	"lagraph/internal/stream"
)

// kernels is the pass order of the six GAP kernels (catalog names).
var kernels = [6]string{"bfs", "bc", "pagerank", "cc", "sssp", "tc"}

const (
	kBFS = iota
	kBC
	kPR
	kCC
	kSSSP
	kTC
)

// workload is one row of the benchmark table: everything that tells two
// workloads apart. The pass (pass.go) reads these and nothing else.
type workload struct {
	name string
	why  string

	class  string // "kron" (scale = log2 n, edge factor 8) | "road" (scale = grid side)
	scale  int
	graphs int // resident graphs, split evenly among the clients

	setups  int // complete set-ups per run; setup_s is their median
	clients int // closed-loop client goroutines
	passes  int // passes per client at the nominal -seconds
	mutates int // mutate+floor pairs opening a pass (churn mutates again before each kernel)
	batch   int // ops per mutation batch
	hits    int // result-cache hits (and ping bursts) per pass
	burst   int // pings per burst after a hit
	churn   bool

	// reps[k] is R_k: back-to-back GAP runs per calibration sample, sized
	// so one sample is >= 20 ms on the reference box (>= 5 ms on small-hot,
	// whose 320 passes make up for it).
	reps [6]int
}

// nominalSeconds is the -seconds value the frozen pass counts below were
// sized for; other values scale the pass count linearly.
const nominalSeconds = 20

// The frozen table. Pass counts and R_k are constants, never adapted at
// run time, so every run of a seed sends exactly the same requests.
var workloads = []workload{
	{
		name:  "kron-cold",
		why:   "Kron scale 15: few heavy iterations, so grb bulk MxM/MxV throughput does nearly all the work and the service layers little",
		class: "kron", scale: 15, graphs: 1, setups: 5, clients: 1, passes: 15, mutates: 12, batch: 64, hits: 12, burst: 32,
		reps: [6]int{48, 2, 6, 6, 2, 1},
	},
	{
		name:  "road-cold",
		why:   "Road 96x96 grid, the paper's worst case: thousands of tiny-frontier iterations, so per-call overhead and allocation in grb/parallel dominate",
		class: "road", scale: 96, graphs: 1, setups: 41, clients: 1, passes: 22, mutates: 12, batch: 64, hits: 8, burst: 32,
		reps: [6]int{96, 16, 16, 96, 24, 32},
	},
	{
		name:  "small-hot",
		why:   "8 resident Kron scale-10 graphs, 2 clients: kernels take ~1 ms, so server, jobs, registry lease, validation and JSON encode dominate under contention",
		class: "kron", scale: 10, graphs: 8, setups: 15, clients: 2, passes: 130, mutates: 6, batch: 16, hits: 40, burst: 8,
		reps: [6]int{512, 16, 64, 64, 24, 6},
	},
	{
		name:  "churn",
		why:   "Kron scale 13 with a 256-op mutation before every query: stream, store, registry swap/finalize and property materialisation dominate",
		class: "kron", scale: 13, graphs: 1, setups: 15, clients: 1, passes: 64, mutates: 1, batch: 256, hits: 8, burst: 16, churn: true,
		reps: [6]int{64, 4, 12, 12, 4, 2},
	},
}

// tinyWorkloads is the -tiny table: the same four rows shrunk so the test
// suite runs all of them in a few seconds.
func tinyWorkloads() []workload {
	out := make([]workload, len(workloads))
	for i, w := range workloads {
		w.scale = 8
		if w.class == "road" {
			w.scale = 12
		}
		if w.graphs > 2 {
			w.graphs = 2
		}
		w.setups, w.passes, w.hits, w.burst = 3, 2, 4, 2
		w.reps = [6]int{2, 1, 1, 1, 1, 1}
		out[i] = w
	}
	return out
}

func findWorkload(table []workload, name string) (workload, error) {
	for _, w := range table {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(table))
	for i, w := range table {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// nbr is one weighted adjacency entry of the mirror.
type nbr struct {
	v int32
	w float32
}

// mirror is the bench's own copy of one served graph: sorted adjacency
// lists that follow every acknowledged mutation, from which the GAP
// baseline graph (the calibration and the oracle) is rebuilt. Undirected:
// both orientations are always present, no self loops.
type mirror struct {
	name string
	n    int
	adj  [][]nbr
	nnz  int // directed entries

	// pool holds deleted edges awaiting re-insertion, so mutations churn
	// the edge set without drifting the graph's structure (random new
	// edges would collapse Road's diameter within a few passes).
	pool [][2]int32
	// sources are the vertices of the largest component at build time —
	// the candidates for BFS/SSSP/BC sources, so no query is trivial.
	sources []int32
	version uint64 // last acknowledged registry version
}

// weightOf derives the symmetric integer weight in [1,255] (the GAP SSSP
// convention) of an undirected edge from the seed.
func weightOf(seed uint64, u, v int32) float32 {
	if u > v {
		u, v = v, u
	}
	z := seed ^ (uint64(u)<<32 | uint64(uint32(v)))
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float32(1 + z%255)
}

// buildMirror generates graph number g of a workload from the seed.
func buildMirror(w workload, g int, seed uint64) *mirror {
	gseed := seed*131 + uint64(g) + 1
	var e *gen.EdgeList
	if w.class == "road" {
		e = gen.Road(w.scale, gseed)
	} else {
		e = gen.Kron(w.scale, 8, gseed)
	}
	m := &mirror{name: fmt.Sprintf("g%d", g), n: e.N, adj: make([][]nbr, e.N)}
	deg := make([]int, e.N)
	for k := range e.Src {
		if e.Src[k] != e.Dst[k] {
			deg[e.Src[k]]++
		}
	}
	for u := range m.adj {
		m.adj[u] = make([]nbr, 0, deg[u])
	}
	// The generators emit both orientations, deduplicated and sorted by
	// (src, dst), so appending in order yields sorted adjacency lists.
	for k := range e.Src {
		u, v := e.Src[k], e.Dst[k]
		if u != v {
			m.adj[u] = append(m.adj[u], nbr{v, weightOf(gseed, u, v)})
			m.nnz++
		}
	}
	comp := gap.ConnectedComponents(m.gap())
	size := map[int32]int{}
	for _, c := range comp {
		size[c]++
	}
	best, bestSize := int32(-1), 0
	for c, s := range size {
		if s > bestSize || (s == bestSize && c < best) {
			best, bestSize = c, s
		}
	}
	for v, c := range comp {
		if c == best {
			m.sources = append(m.sources, int32(v))
		}
	}
	return m
}

func (m *mirror) find(u, v int32) (int, bool) {
	a := m.adj[u]
	i := sort.Search(len(a), func(i int) bool { return a[i].v >= v })
	return i, i < len(a) && a[i].v == v
}

func (m *mirror) put(u, v int32, w float32) {
	i, ok := m.find(u, v)
	if ok {
		m.adj[u][i].w = w
		return
	}
	a := append(m.adj[u], nbr{})
	copy(a[i+1:], a[i:])
	a[i] = nbr{v, w}
	m.adj[u] = a
	m.nnz++
}

func (m *mirror) del(u, v int32) {
	if i, ok := m.find(u, v); ok {
		m.adj[u] = append(m.adj[u][:i], m.adj[u][i+1:]...)
		m.nnz--
	}
}

// gap flattens the mirror into the GAP baseline's CSR graph.
func (m *mirror) gap() *gap.Graph {
	g := &gap.Graph{N: int32(m.n)}
	g.OutPtr = make([]int64, m.n+1)
	g.OutAdj = make([]int32, 0, m.nnz)
	g.OutW = make([]float32, 0, m.nnz)
	for u, a := range m.adj {
		for _, e := range a {
			g.OutAdj = append(g.OutAdj, e.v)
			g.OutW = append(g.OutW, e.w)
		}
		g.OutPtr[u+1] = int64(len(g.OutAdj))
	}
	g.InPtr, g.InAdj, g.InW = g.OutPtr, g.OutAdj, g.OutW
	return g
}

// csr flattens the mirror into GraphBLAS import arrays.
func (m *mirror) csr() (ptr, idx []int, val []float64) {
	ptr = make([]int, m.n+1)
	idx = make([]int, 0, m.nnz)
	val = make([]float64, 0, m.nnz)
	for u, a := range m.adj {
		for _, e := range a {
			idx = append(idx, int(e.v))
			val = append(val, float64(e.w))
		}
		ptr[u+1] = len(idx)
	}
	return ptr, idx, val
}

// randomEdge picks a uniformly random vertex with neighbours, then one of
// its edges.
func (m *mirror) randomEdge(rng *rand.Rand) (int32, int32) {
	for {
		u := int32(rng.IntN(m.n))
		if a := m.adj[u]; len(a) > 0 {
			return u, a[rng.IntN(len(a))].v
		}
	}
}

// mutation draws one batch — half deletes of existing edges, half upserts
// (re-insertions from the deleted pool once it holds four batches' worth,
// reweights of existing edges before that) — and applies it to the
// mirror. The edge count is stationary and the structure never drifts.
func (m *mirror) mutation(rng *rand.Rand, batch int) []stream.Op {
	ops := make([]stream.Op, 0, batch)
	for i := 0; i < batch; i++ {
		if i%2 == 0 {
			u, v := m.randomEdge(rng)
			m.del(u, v)
			m.del(v, u)
			m.pool = append(m.pool, [2]int32{u, v})
			ops = append(ops, stream.Op{Op: stream.OpDelete, Src: int(u), Dst: int(v)})
			continue
		}
		var u, v int32
		if len(m.pool) >= 4*batch {
			k := rng.IntN(len(m.pool))
			u, v = m.pool[k][0], m.pool[k][1]
			m.pool[k] = m.pool[len(m.pool)-1]
			m.pool = m.pool[:len(m.pool)-1]
		} else {
			u, v = m.randomEdge(rng)
		}
		w := float64(1 + rng.IntN(255))
		m.put(u, v, float32(w))
		m.put(v, u, float32(w))
		ops = append(ops, stream.Op{Op: stream.OpUpsert, Src: int(u), Dst: int(v), Weight: &w})
	}
	return ops
}
