package gap

import (
	"sync"
	"sync/atomic"

	"lagraph/internal/parallel"
)

// BFSParents is the direction-optimizing BFS of Beamer et al., following
// the structure of GAP's bfs.cc: top-down steps over a sliding queue,
// bottom-up steps over a bitmap frontier, with the alpha/beta switching
// heuristic. The parent array uses the same benign race as bfs.cc — any
// discovering parent may win (the behaviour the paper translated into the
// any.secondi semiring). Unreached vertices hold -1.
func BFSParents(g *Graph, src int32) []int32 {
	const alpha, beta = 15, 18
	n := g.N
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = -1
	}
	parent[src] = src

	queue := []int32{src}
	front := newBitmap(n)
	next := newBitmap(n)
	edgesToCheck := g.NumEdges()
	scoutCount := g.OutDegree(src)

	for len(queue) > 0 {
		if scoutCount > edgesToCheck/alpha {
			// Switch to bottom-up until the frontier is small again.
			front.reset()
			for _, u := range queue {
				front.set(u)
			}
			awakeCount := int64(len(queue))
			oldAwake := awakeCount
			for {
				oldAwake = awakeCount
				awakeCount = bottomUpStep(g, parent, front, next)
				front, next = next, front
				if awakeCount == 0 || (awakeCount <= oldAwake && awakeCount < int64(n)/beta) {
					break
				}
			}
			// Rebuild the queue from the bitmap.
			queue = queue[:0]
			for i := int32(0); i < n; i++ {
				if front.get(i) {
					queue = append(queue, i)
				}
			}
			scoutCount = 1
			continue
		}
		edgesToCheck -= scoutCount
		queue, scoutCount = topDownStep(g, parent, queue)
	}
	return parent
}

// topDownStep relaxes the frontier queue, claiming parents with CAS so the
// step can run in parallel, and returns the next queue plus its out-degree
// total (the scout count of GAP's heuristic).
func topDownStep(g *Graph, parent []int32, queue []int32) ([]int32, int64) {
	nw := parallel.Threads(len(queue))
	if nw == 1 {
		var next []int32
		var scout int64
		for _, u := range queue {
			for _, v := range g.OutNeighbors(u) {
				if parent[v] < 0 {
					parent[v] = u
					next = append(next, v)
					scout += g.OutDegree(v)
				}
			}
		}
		return next, scout
	}
	type part struct {
		next  []int32
		scout int64
	}
	parts := make([]part, nw)
	chunk := (len(queue) + nw - 1) / nw
	var wg sync.WaitGroup
	for wkr := 0; wkr < nw; wkr++ {
		lo := wkr * chunk
		hi := lo + chunk
		if hi > len(queue) {
			hi = len(queue)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(wkr, lo, hi int) {
			defer wg.Done()
			p := &parts[wkr]
			for _, u := range queue[lo:hi] {
				for _, v := range g.OutNeighbors(u) {
					// The GAP benign race, made safe with a CAS claim.
					if atomic.LoadInt32(&parent[v]) < 0 &&
						atomic.CompareAndSwapInt32(&parent[v], -1, u) {
						p.next = append(p.next, v)
						p.scout += g.OutDegree(v)
					}
				}
			}
		}(wkr, lo, hi)
	}
	wg.Wait()
	var next []int32
	var scout int64
	for i := range parts {
		next = append(next, parts[i].next...)
		scout += parts[i].scout
	}
	return next, scout
}

// bottomUpStep scans all unvisited vertices, looking for any in-neighbour
// on the frontier bitmap (early exit at the first hit), and returns the
// number awakened.
func bottomUpStep(g *Graph, parent []int32, front, next *bitmap) int64 {
	next.reset()
	n := int(g.N)
	return parallel.Reduce(n, 0, func(lo, hi int) int64 {
		var awake int64
		for i := lo; i < hi; i++ {
			u := int32(i)
			if parent[u] >= 0 {
				continue
			}
			for _, v := range g.InNeighbors(u) {
				if front.get(v) {
					parent[u] = v
					next.set(u)
					awake++
					break
				}
			}
		}
		return awake
	}, func(a, b int64) int64 { return a + b })
}

// BFSLevels returns hop distances (-1 unreached) using the same traversal.
func BFSLevels(g *Graph, src int32) []int32 {
	parent := BFSParents(g, src)
	level := make([]int32, g.N)
	for i := range level {
		level[i] = -1
	}
	// Levels from parents: follow chains, memoising.
	var depth func(v int32) int32
	depth = func(v int32) int32 {
		if level[v] >= 0 {
			return level[v]
		}
		if parent[v] < 0 {
			return -1
		}
		if parent[v] == v {
			level[v] = 0
			return 0
		}
		d := depth(parent[v])
		level[v] = d + 1
		return level[v]
	}
	for i := int32(0); i < g.N; i++ {
		if parent[i] >= 0 {
			depth(i)
		}
	}
	return level
}
