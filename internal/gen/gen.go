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
	"sort"
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
	switch strings.ToLower(class) {
	case "kron":
		return Kron(scale, edgeFactor, seed), nil
	case "urand":
		return Urand(scale, edgeFactor, seed), nil
	case "twitter":
		return Twitter(scale, edgeFactor, seed), nil
	case "web":
		return Web(scale, edgeFactor, seed), nil
	case "road":
		return Road(1<<(scale/2), seed), nil
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

// Kron generates the GAP "Kron" class: an RMAT graph with the Graph500
// parameters (A=.57, B=.19, C=.19), symmetrised to an undirected graph,
// vertex labels shuffled. 2^scale vertices, edgeFactor undirected edges
// per vertex before deduplication.
func Kron(scale, edgeFactor int, seed uint64) *EdgeList {
	rng := &splitmix64{state: seed*2654435761 + 1}
	n := 1 << scale
	m := n * edgeFactor
	perm := permutation(n, rng)
	src := make([]int32, 0, 2*m)
	dst := make([]int32, 0, 2*m)
	for k := 0; k < m; k++ {
		u, v := rmat(rng, scale, 0.57, 0.19, 0.19)
		u, v = perm[u], perm[v]
		if u == v {
			continue
		}
		src = append(src, u, v)
		dst = append(dst, v, u)
	}
	e := &EdgeList{N: n, Src: src, Dst: dst, Name: "Kron", Directed: false}
	e.Dedup()
	return e
}

// Urand generates the GAP "Urand" class: an Erdős–Rényi graph of the same
// size as Kron, symmetrised.
func Urand(scale, edgeFactor int, seed uint64) *EdgeList {
	rng := &splitmix64{state: seed*40503 + 7}
	n := 1 << scale
	m := n * edgeFactor
	src := make([]int32, 0, 2*m)
	dst := make([]int32, 0, 2*m)
	for k := 0; k < m; k++ {
		u := int32(rng.intn(n))
		v := int32(rng.intn(n))
		if u == v {
			continue
		}
		src = append(src, u, v)
		dst = append(dst, v, u)
	}
	e := &EdgeList{N: n, Src: src, Dst: dst, Name: "Urand", Directed: false}
	e.Dedup()
	return e
}

// Twitter generates the directed social-follow class: an RMAT graph with
// more aggressive skew (A=.65) kept directed, labels shuffled — a few
// celebrity vertices collect enormous in-degrees.
func Twitter(scale, edgeFactor int, seed uint64) *EdgeList {
	rng := &splitmix64{state: seed*69069 + 13}
	n := 1 << scale
	m := n * edgeFactor
	perm := permutation(n, rng)
	src := make([]int32, 0, m)
	dst := make([]int32, 0, m)
	for k := 0; k < m; k++ {
		u, v := rmat(rng, scale, 0.65, 0.15, 0.15)
		u, v = perm[u], perm[v]
		if u == v {
			continue
		}
		src = append(src, u)
		dst = append(dst, v)
	}
	e := &EdgeList{N: n, Src: src, Dst: dst, Name: "Twitter", Directed: true}
	e.Dedup()
	return e
}

// Web generates the directed crawl class: RMAT without label shuffling, so
// vertex ids retain the host-locality block structure of a real crawl
// (nearby ids link to each other), plus skew.
func Web(scale, edgeFactor int, seed uint64) *EdgeList {
	rng := &splitmix64{state: seed*31337 + 27}
	n := 1 << scale
	m := n * edgeFactor
	src := make([]int32, 0, m)
	dst := make([]int32, 0, m)
	for k := 0; k < m; k++ {
		u, v := rmat(rng, scale, 0.6, 0.2, 0.1)
		if u == v {
			continue
		}
		src = append(src, u)
		dst = append(dst, v)
	}
	e := &EdgeList{N: n, Src: src, Dst: dst, Name: "Web", Directed: true}
	e.Dedup()
	return e
}

// Road generates the high-diameter class: a dim × dim grid where each cell
// connects to its right and down neighbours (both directions, as the USA
// road network is stored as a directed graph with nearly symmetric
// pattern), with a sprinkle of diagonal shortcuts. Its diameter grows with
// dim — the property behind the paper's Road-graph pathology (§VI-B: "the
// high diameter … requires 6980 iterations of GraphBLAS, each with a tiny
// amount of work").
func Road(dim int, seed uint64) *EdgeList {
	rng := &splitmix64{state: seed*2246822519 + 5}
	n := dim * dim
	id := func(r, c int) int32 { return int32(r*dim + c) }
	var src, dst []int32
	add := func(u, v int32) { src = append(src, u, v); dst = append(dst, v, u) }
	for r := 0; r < dim; r++ {
		for c := 0; c < dim; c++ {
			if c+1 < dim {
				add(id(r, c), id(r, c+1))
			}
			if r+1 < dim {
				add(id(r, c), id(r+1, c))
			}
			// Occasional diagonal, like a local shortcut road.
			if r+1 < dim && c+1 < dim && rng.float64() < 0.05 {
				add(id(r, c), id(r+1, c+1))
			}
		}
	}
	e := &EdgeList{N: n, Src: src, Dst: dst, Name: "Road", Directed: true}
	e.Dedup()
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
		h := splitmix64{state: seed ^ (uint64(u)<<32 | uint64(uint32(v)))}
		e.W[k] = float64(lo + h.intn(hi-lo+1))
	}
}

// Dedup removes duplicate directed edges and leaves the list sorted by
// (src, dst) for reproducible downstream builds. It ignores W: the
// generators assign weights after deduplicating.
func (e *EdgeList) Dedup() {
	type pair struct{ u, v int32 }
	idx := make([]int, len(e.Src))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		pa := pair{e.Src[idx[a]], e.Dst[idx[a]]}
		pb := pair{e.Src[idx[b]], e.Dst[idx[b]]}
		if pa.u != pb.u {
			return pa.u < pb.u
		}
		return pa.v < pb.v
	})
	outS := make([]int32, 0, len(e.Src))
	outD := make([]int32, 0, len(e.Dst))
	for _, i := range idx {
		u, v := e.Src[i], e.Dst[i]
		if len(outS) > 0 && outS[len(outS)-1] == u && outD[len(outD)-1] == v {
			continue
		}
		outS = append(outS, u)
		outD = append(outD, v)
	}
	e.Src, e.Dst = outS, outD
}

// CSR builds compressed sparse row arrays (int indices) from the list.
// When the list is weighted the returned vals carry the weights, otherwise
// unit values.
func (e *EdgeList) CSR() (ptr []int, idx []int, vals []float64) {
	ptr = make([]int, e.N+1)
	for _, s := range e.Src {
		ptr[s+1]++
	}
	for i := 0; i < e.N; i++ {
		ptr[i+1] += ptr[i]
	}
	idx = make([]int, len(e.Src))
	vals = make([]float64, len(e.Src))
	next := make([]int, e.N)
	copy(next, ptr[:e.N])
	for k := range e.Src {
		p := next[e.Src[k]]
		next[e.Src[k]]++
		idx[p] = int(e.Dst[k])
		if e.W != nil {
			vals[p] = e.W[k]
		} else {
			vals[p] = 1
		}
	}
	return ptr, idx, vals
}
