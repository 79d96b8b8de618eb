// Package gen produces the synthetic benchmark graphs standing in for the
// GAP suite's five inputs (paper Table IV). The real suite uses two
// synthetic graphs (Kron and Urand, 2^27 vertices / ~4.3 B edges) and three
// real datasets (Twitter, Web, Road). At reproduction scale the five
// function as workload *classes*:
//
//	Kron    — power-law degree distribution, low diameter (RMAT)
//	Urand   — uniform degrees, low diameter (Erdős–Rényi)
//	Twitter — directed, heavily skewed in-degrees (social follow graph)
//	Web     — directed, locality-heavy, skewed (host-clustered crawl)
//	Road    — directed but nearly symmetric, uniform tiny degrees, very
//	          high diameter (planar road network)
//
// All generators are deterministic in (scale, seed).
package gen

import (
	"fmt"
	"slices"
	"strings"
)

// EdgeList is the generator output: a directed edge list over n vertices.
// W, when non-nil, carries positive edge weights (GAP assigns uniform
// integers in [1, 255] for SSSP).
type EdgeList struct {
	N    int
	Src  []int32
	Dst  []int32
	W    []float64
	Name string
	// Directed records the intended interpretation; undirected lists
	// contain both orientations of every edge.
	Directed bool
}

// Generate builds one class by name (matched case-insensitively) — the
// one table behind POST /graphs, the bench harness and graphgen. The
// synthetic classes have 2^scale vertices and edgeFactor edges per vertex
// before deduplication; Road ignores edgeFactor and uses a 2^(scale/2)
// grid so its vertex count matches.
func Generate(class string, scale, edgeFactor int, seed uint64) (*EdgeList, error) {
	if strings.EqualFold(class, "road") {
		return Road(1<<(scale/2), seed), nil
	}
	for i := range classes {
		if strings.EqualFold(class, classes[i].name) {
			return classes[i].generate(scale, edgeFactor, seed), nil
		}
	}
	return nil, fmt.Errorf("unknown graph class %q (kron|urand|twitter|web|road)", class)
}

// NumEdges returns the number of (directed) edges in the list.
func (e *EdgeList) NumEdges() int { return len(e.Src) }

// splitmix64 is the deterministic RNG used throughout the generators.
type splitmix64 struct{ state uint64 }

func (s *splitmix64) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix64) float64() float64 {
	return float64(s.next()>>11) / float64(1<<53)
}

func (s *splitmix64) intn(n int) int {
	return int(s.next() % uint64(n))
}

// rmat draws one edge of an RMAT graph with quadrant probabilities a, b, c
// (d = 1-a-b-c), over 2^scale vertices.
func rmat(rng *splitmix64, scale int, a, b, c float64) (int32, int32) {
	var src, dst int32
	ab := a + b
	abc := a + b + c
	for bit := 0; bit < scale; bit++ {
		r := rng.float64()
		switch {
		case r < a:
			// top-left
		case r < ab:
			dst |= 1 << bit
		case r < abc:
			src |= 1 << bit
		default:
			src |= 1 << bit
			dst |= 1 << bit
		}
	}
	return src, dst
}

// permutation returns a seeded random relabelling of [0,n).
func permutation(n int, rng *splitmix64) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := rng.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// synthetic is one row of the generator table behind Kron, Urand, Twitter
// and Web. Its RNG starts at seed*mul + add; it draws the relabelling
// permutation first (when relabel is set), then per edge either an RMAT
// edge with quadrant probabilities a, b, c or, when a is 0, a uniform
// (u, v). Self loops are dropped, and an undirected class keeps both
// orientations of every edge.
type synthetic struct {
	name              string
	mul, add          uint64
	a, b, c           float64
	relabel, directed bool
}

var classes = [...]synthetic{
	{"Kron", 2654435761, 1, 0.57, 0.19, 0.19, true, false},
	{"Urand", 40503, 7, 0, 0, 0, false, false},
	{"Twitter", 69069, 13, 0.65, 0.15, 0.15, true, true},
	{"Web", 31337, 27, 0.6, 0.2, 0.1, false, true},
}

// generate draws ef edges per vertex over 2^scale vertices.
func (c *synthetic) generate(scale, ef int, seed uint64) *EdgeList {
	rng := &splitmix64{state: seed*c.mul + c.add}
	n := 1 << scale
	m := n * ef
	var perm []int32
	if c.relabel {
		perm = permutation(n, rng)
	}
	size := 2 * m
	if c.directed {
		size = m
	}
	keys := make([]uint64, 0, size)
	for range m {
		var u, v int32
		if c.a == 0 {
			u, v = int32(rng.intn(n)), int32(rng.intn(n))
		} else {
			u, v = rmat(rng, scale, c.a, c.b, c.c)
		}
		if perm != nil {
			u, v = perm[u], perm[v]
		}
		if u == v {
			continue
		}
		keys = append(keys, key(u, v))
		if !c.directed {
			keys = append(keys, key(v, u))
		}
	}
	e := &EdgeList{N: n, Name: c.name, Directed: c.directed}
	e.setKeys(keys)
	return e
}

// Kron generates the GAP "Kron" class: an RMAT graph with the Graph500
// parameters (A=.57, B=.19, C=.19), symmetrised to an undirected graph,
// vertex labels shuffled. 2^scale vertices, ef undirected edges per
// vertex before deduplication.
func Kron(scale, ef int, seed uint64) *EdgeList { return classes[0].generate(scale, ef, seed) }

// Urand generates the GAP "Urand" class: an Erdős–Rényi graph of the same
// size as Kron, symmetrised.
func Urand(scale, ef int, seed uint64) *EdgeList { return classes[1].generate(scale, ef, seed) }

// Twitter generates the directed social-follow class: an RMAT graph with
// more aggressive skew (A=.65) kept directed, labels shuffled — a few
// celebrity vertices collect enormous in-degrees.
func Twitter(scale, ef int, seed uint64) *EdgeList { return classes[2].generate(scale, ef, seed) }

// Web generates the directed crawl class: RMAT without label shuffling, so
// vertex ids retain the host-locality block structure of a real crawl
// (nearby ids link to each other), plus skew.
func Web(scale, ef int, seed uint64) *EdgeList { return classes[3].generate(scale, ef, seed) }

// Road generates the high-diameter class: a dim × dim grid where each cell
// connects to its right and down neighbours (both directions, as the USA
// road network is stored as a directed graph with nearly symmetric
// pattern), with a sprinkle of diagonal shortcuts. Its diameter grows with
// dim — the property behind the paper's Road-graph pathology (§VI-B: "the
// high diameter … requires 6980 iterations of GraphBLAS, each with a tiny
// amount of work").
func Road(dim int, seed uint64) *EdgeList {
	rng := &splitmix64{state: seed*2246822519 + 5}
	var keys []uint64
	add := func(u, v int) { keys = append(keys, key(int32(u), int32(v)), key(int32(v), int32(u))) }
	for r := 0; r < dim; r++ {
		for c := 0; c < dim; c++ {
			u := r*dim + c
			if c+1 < dim {
				add(u, u+1)
			}
			if r+1 < dim {
				add(u, u+dim)
			}
			// Occasional diagonal, like a local shortcut road.
			if r+1 < dim && c+1 < dim && rng.float64() < 0.05 {
				add(u, u+dim+1)
			}
		}
	}
	e := &EdgeList{N: dim * dim, Name: "Road", Directed: true}
	e.setKeys(keys)
	return e
}

// AddUniformWeights attaches deterministic integer weights in [lo, hi] —
// the GAP SSSP convention is [1, 255].
func (e *EdgeList) AddUniformWeights(seed uint64, lo, hi int) {
	rng := &splitmix64{state: seed*97 + 3}
	e.W = make([]float64, len(e.Src))
	if e.Directed {
		for k := range e.W {
			e.W[k] = float64(lo + rng.intn(hi-lo+1))
		}
		return
	}
	// Undirected lists hold both orientations; give them equal weights by
	// hashing the unordered pair, so w(u,v) == w(v,u).
	for k := range e.W {
		u, v := e.Src[k], e.Dst[k]
		if u > v {
			u, v = v, u
		}
		h := splitmix64{state: seed ^ key(u, v)}
		e.W[k] = float64(lo + h.intn(hi-lo+1))
	}
}

// Dedup sorts the list by (src, dst) and removes repeated edges: the one
// order every generator leaves and CSR and lagraph.FromEdgeList rely on. It
// ignores W: the generators assign weights after deduplicating.
func (e *EdgeList) Dedup() {
	keys := make([]uint64, len(e.Src))
	for k := range keys {
		keys[k] = key(e.Src[k], e.Dst[k])
	}
	e.setKeys(keys)
}

// key packs an edge into one integer whose order is (src, dst) order.
func key(u, v int32) uint64 { return uint64(u)<<32 | uint64(uint32(v)) }

// setKeys sorts the packed edges, drops repeats and unpacks them as the
// list's Src and Dst.
func (e *EdgeList) setKeys(keys []uint64) {
	slices.Sort(keys)
	keys = slices.Compact(keys)
	e.Src, e.Dst = make([]int32, len(keys)), make([]int32, len(keys))
	for k, x := range keys {
		e.Src[k], e.Dst[k] = int32(x>>32), int32(uint32(x))
	}
}

// CSR builds compressed sparse row arrays (int indices) from a list in
// Dedup's order, copying it as it stands. When the list is weighted the
// returned vals carry the weights, otherwise unit values.
func (e *EdgeList) CSR() (ptr []int, idx []int, vals []float64) {
	ptr = make([]int, e.N+1)
	idx = make([]int, len(e.Src))
	vals = make([]float64, len(e.Src))
	for k, s := range e.Src {
		ptr[s+1]++
		idx[k] = int(e.Dst[k])
		vals[k] = 1
		if e.W != nil {
			vals[k] = e.W[k]
		}
	}
	for i := 0; i < e.N; i++ {
		ptr[i+1] += ptr[i]
	}
	return ptr, idx, vals
}
