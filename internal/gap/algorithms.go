package gap

import (
	"math"
	"sort"
	"sync/atomic"

	"lagraph/internal/parallel"
)

// PageRank is GAP's pr.cc: a pull-direction power iteration with the
// 1-norm stopping test. Dangling vertices are not handled — their rank
// leaks, exactly as the paper notes of the GAP specification.
func PageRank(g *Graph, damping float64, tol float64, maxIters int) ([]float64, int) {
	n := int(g.N)
	if n == 0 {
		return nil, 0
	}
	initScore := 1 / float64(n)
	baseScore := (1 - damping) / float64(n)
	scores := make([]float64, n)
	outgoing := make([]float64, n)
	for i := range scores {
		scores[i] = initScore
	}
	iters := 0
	for it := 0; it < maxIters; it++ {
		iters = it + 1
		parallel.For(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if d := g.OutDegree(int32(i)); d > 0 {
					outgoing[i] = scores[i] / float64(d)
				} else {
					outgoing[i] = 0
				}
			}
		})
		err := parallel.Reduce(n, 0, func(lo, hi int) float64 {
			var sum float64
			for i := lo; i < hi; i++ {
				var incoming float64
				for _, v := range g.InNeighbors(int32(i)) {
					incoming += outgoing[v]
				}
				old := scores[i]
				scores[i] = baseScore + damping*incoming
				sum += math.Abs(scores[i] - old)
			}
			return sum
		}, func(a, b float64) float64 { return a + b })
		if err < tol {
			break
		}
	}
	return scores, iters
}

// TriangleCount is GAP's tc.cc: order vertices by degree (when skewed),
// keep only edges toward higher-ordered endpoints, and count sorted-list
// intersections.
func TriangleCount(g *Graph) int64 {
	n := int(g.N)
	// Relabel by ascending degree when the distribution is skewed, as
	// GAP's WorthRelabelling() decides via degree sampling.
	relabel := worthRelabelling(g)
	rank := make([]int32, n)
	if relabel {
		perm := make([]int32, n)
		for i := range perm {
			perm[i] = int32(i)
		}
		sort.SliceStable(perm, func(a, b int) bool {
			da, db := g.OutDegree(perm[a]), g.OutDegree(perm[b])
			if da != db {
				return da < db
			}
			return perm[a] < perm[b]
		})
		for r, v := range perm {
			rank[v] = int32(r)
		}
	} else {
		for i := range rank {
			rank[i] = int32(i)
		}
	}
	// Build forward adjacency: u -> v with rank(v) > rank(u), sorted by
	// rank for the merge intersection.
	fwd := make([][]int32, n)
	parallel.Guided(n, 64, func(i int) {
		u := int32(i)
		var lst []int32
		for _, v := range g.OutNeighbors(u) {
			if rank[v] > rank[u] {
				lst = append(lst, rank[v])
			}
		}
		sort.Slice(lst, func(a, b int) bool { return lst[a] < lst[b] })
		fwd[rank[u]] = lst
	})
	return parallel.Reduce(n, 0, func(lo, hi int) int64 {
		var count int64
		for u := lo; u < hi; u++ {
			for _, v := range fwd[u] {
				count += sortedIntersectCount(fwd[u], fwd[v])
			}
		}
		return count
	}, func(a, b int64) int64 { return a + b })
}

func sortedIntersectCount(a, b []int32) int64 {
	var count int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case b[j] < a[i]:
			j++
		default:
			count++
			i++
			j++
		}
	}
	return count
}

// worthRelabelling samples degrees like GAP: relabel when the average
// degree is far above the sampled median.
func worthRelabelling(g *Graph) bool {
	n := int(g.N)
	if n == 0 {
		return false
	}
	samples := 1000
	if samples > n {
		samples = n
	}
	stride := n / samples
	if stride == 0 {
		stride = 1
	}
	var degs []int64
	var sum int64
	for i := 0; i < n; i += stride {
		d := g.OutDegree(int32(i))
		degs = append(degs, d)
		sum += d
	}
	sort.Slice(degs, func(a, b int) bool { return degs[a] < degs[b] })
	mean := float64(sum) / float64(len(degs))
	median := float64(degs[len(degs)/2])
	return mean > 4*median
}

// ConnectedComponents is a Shiloach–Vishkin-style label propagation with
// pointer jumping, the classic structure of GAP's cc.cc (Afforest's
// sampling refinement omitted; the hook/compress loop is the shape that
// matters). Directed graphs are treated as undirected via both adjacency
// directions.
func ConnectedComponents(g *Graph) []int32 {
	n := int(g.N)
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = int32(i)
	}
	for changed := true; changed; {
		changed = false
		// Hook: for every edge (u,v), point the larger root at the
		// smaller label. The GAP code's benign race becomes a CAS here.
		c := parallel.Reduce(n, 0, func(lo, hi int) int64 {
			var local int64
			for i := lo; i < hi; i++ {
				u := int32(i)
				hook := func(v int32) {
					cu := atomic.LoadInt32(&comp[u])
					cv := atomic.LoadInt32(&comp[v])
					if cu < cv && atomic.CompareAndSwapInt32(&comp[cv], cv, cu) {
						local++
					}
				}
				for _, v := range g.OutNeighbors(u) {
					hook(v)
				}
				if g.Directed {
					for _, v := range g.InNeighbors(u) {
						hook(v)
					}
				}
			}
			return local
		}, func(a, b int64) int64 { return a + b })
		if c > 0 {
			changed = true
		}
		// Compress: pointer jumping to the root.
		parallel.For(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				for {
					ci := atomic.LoadInt32(&comp[i])
					cci := atomic.LoadInt32(&comp[ci])
					if ci == cci {
						break
					}
					atomic.StoreInt32(&comp[i], cci)
				}
			}
		})
	}
	return comp
}

// SSSPDelta is GAP's sssp.cc: delta-stepping with explicit buckets. dist
// uses float32 like the GAP weights; unreached vertices hold +inf.
func SSSPDelta(g *Graph, src int32, delta float32) []float32 {
	n := int(g.N)
	inf := float32(math.Inf(1))
	dist := make([]float32, n)
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	buckets := [][]int32{{src}}
	for bi := 0; bi < len(buckets); bi++ {
		// Light-edge fixed point within the bucket.
		frontier := buckets[bi]
		buckets[bi] = nil
		var settled []int32
		for len(frontier) > 0 {
			var nextFrontier []int32
			for _, u := range frontier {
				if dist[u] < float32(bi)*delta {
					continue // settled in an earlier bucket re-insertion
				}
				settled = append(settled, u)
				for k := g.OutPtr[u]; k < g.OutPtr[u+1]; k++ {
					v := g.OutAdj[k]
					w := float32(1)
					if g.OutW != nil {
						w = g.OutW[k]
					}
					if w > delta {
						continue
					}
					if nd := dist[u] + w; nd < dist[v] {
						dist[v] = nd
						if nd < float32(bi+1)*delta {
							nextFrontier = append(nextFrontier, v)
						} else {
							pushBucket(&buckets, int(nd/delta), v)
						}
					}
				}
			}
			frontier = nextFrontier
		}
		// One heavy relaxation for every vertex settled in this bucket.
		for _, u := range settled {
			for k := g.OutPtr[u]; k < g.OutPtr[u+1]; k++ {
				v := g.OutAdj[k]
				w := float32(1)
				if g.OutW != nil {
					w = g.OutW[k]
				}
				if w <= delta {
					continue
				}
				if nd := dist[u] + w; nd < dist[v] {
					dist[v] = nd
					pushBucket(&buckets, int(nd/delta), v)
				}
			}
		}
	}
	return dist
}

func pushBucket(buckets *[][]int32, b int, v int32) {
	for len(*buckets) <= b {
		*buckets = append(*buckets, nil)
	}
	(*buckets)[b] = append((*buckets)[b], v)
}

// BC is GAP's bc.cc: batched Brandes over the given sources, BFS phase
// plus dependency accumulation. Scores are not normalised (matching the
// LAGraph convention of raw dependency sums).
func BC(g *Graph, sources []int32) []float64 {
	n := int(g.N)
	bc := make([]float64, n)
	for _, s := range sources {
		sigma := make([]float64, n)
		depth := make([]int32, n)
		for i := range depth {
			depth[i] = -1
		}
		sigma[s] = 1
		depth[s] = 0
		order := make([]int32, 0, n)
		queue := []int32{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			order = append(order, u)
			for _, v := range g.OutNeighbors(u) {
				if depth[v] < 0 {
					depth[v] = depth[u] + 1
					queue = append(queue, v)
				}
				if depth[v] == depth[u]+1 {
					sigma[v] += sigma[u]
				}
			}
		}
		delta := make([]float64, n)
		for i := len(order) - 1; i >= 0; i-- {
			u := order[i]
			for _, v := range g.OutNeighbors(u) {
				if depth[v] == depth[u]+1 && sigma[v] > 0 {
					delta[u] += sigma[u] / sigma[v] * (1 + delta[v])
				}
			}
			if u != s {
				bc[u] += delta[u]
			}
		}
	}
	return bc
}
