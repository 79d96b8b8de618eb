// Package parallel provides small building blocks for data-parallel loops
// used by the GraphBLAS kernels: a blocked parallel-for, a guided
// parallel-for over irregular work (rows of a sparse matrix), and parallel
// reductions. All helpers degrade to a plain sequential loop when the
// iteration count is small, so callers never need their own size checks.
package parallel

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// minParallelWork is the iteration count below which running a loop on a
// single goroutine is always faster than forking workers.
const minParallelWork = 2048

// maxThreads caps worker counts; it can be lowered for deterministic tests.
var maxThreads atomic.Int64

func init() { maxThreads.Store(int64(runtime.GOMAXPROCS(0))) }

// SetMaxThreads bounds the number of worker goroutines used by all helpers
// in this package. Values < 1 reset to GOMAXPROCS. It returns the previous
// setting, so tests can restore it with defer.
func SetMaxThreads(n int) int {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	return int(maxThreads.Swap(int64(n)))
}

// MaxThreads reports the current worker bound.
func MaxThreads() int { return int(maxThreads.Load()) }

// Threads returns the number of workers to use for n units of work.
func Threads(n int) int {
	t := MaxThreads()
	if n < minParallelWork || t <= 1 {
		return 1
	}
	if w := n / (minParallelWork / 2); w < t {
		t = w
	}
	if t < 1 {
		t = 1
	}
	return t
}

// weightedPieces is how many blocks a weighted cut makes per worker. A
// weight counts entries, not the work done on them (a masked dot's row
// costs its mask entries times the rows they meet), so equal weight is
// only roughly equal work; the spare pieces, taken from a shared counter,
// absorb the rest.
const weightedPieces = 8

// Blocks is the one fan-out primitive: it splits [0, n) into contiguous
// blocks, runs body(lo, hi) on each concurrently and returns the per-block
// results in block order, for the caller to combine. A single block runs
// inline on the caller's goroutine. body must be safe to call concurrently
// on disjoint ranges.
//
// The cut is by weight. With weight nil every index weighs the same, and
// [0, n) is cut into Threads(n) blocks of equal length. Otherwise weight is
// cumulative, of length n+1 from weight[0] = 0 — a CSR row pointer, so
// index i weighs its row's entries, plus one for the row itself — and
// [0, n) is cut into weightedPieces·Threads(n) blocks (at most n) of equal
// weight, which Threads(n) workers take in turn: skewed rows, such as a
// degree-sorted graph's, no longer leave one block with most of the work.
func Blocks[S any](n int, weight []int, body func(lo, hi int) S) []S {
	if n <= 0 {
		return nil
	}
	t := Threads(n)
	if t == 1 {
		return []S{body(0, n)}
	}
	var pieces int
	var start func(b int) int
	if weight == nil {
		chunk := (n + t - 1) / t
		pieces = (n + chunk - 1) / chunk
		start = func(b int) int { return min(b*chunk, n) }
	} else {
		// Cut where W(i) = weight[i] + i first reaches each share of the
		// total; a row heavier than a share swallows the cuts that fall
		// inside it, so no block is empty.
		want := min(weightedPieces*t, n)
		total := weight[n] + n
		cuts := make([]int, 1, want+1)
		for b := 1; b <= want; b++ {
			target := total * b / want
			if c := sort.Search(n, func(i int) bool { return weight[i]+i >= target }); c > cuts[len(cuts)-1] {
				cuts = append(cuts, c)
			}
		}
		pieces = len(cuts) - 1
		start = func(b int) int { return cuts[b] }
	}
	out := make([]S, pieces)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(min(t, pieces))
	for range min(t, pieces) {
		go func() {
			defer wg.Done()
			for b := int(next.Add(1)) - 1; b < pieces; b = int(next.Add(1)) - 1 {
				out[b] = body(start(b), start(b+1))
			}
		}()
	}
	wg.Wait()
	return out
}

// For runs body(lo, hi) over disjoint contiguous chunks covering [0, n).
// body must be safe to call concurrently on disjoint ranges.
func For(n int, body func(lo, hi int)) {
	if Threads(n) == 1 {
		// Inline, and without the adapter closure below: this is the
		// per-call path of every tiny-frontier iteration.
		if n > 0 {
			body(0, n)
		}
		return
	}
	Blocks(n, nil, func(lo, hi int) struct{} {
		body(lo, hi)
		return struct{}{}
	})
}

// Guided runs body(i) for every i in [0, n), handing out small blocks from a
// shared counter so imbalanced work (e.g. skewed sparse rows) stays balanced.
// grain is the block size handed to a worker at a time; pass 0 for a default.
func Guided(n, grain int, body func(i int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = 64
	}
	t := Threads(n)
	if t == 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(t)
	for w := 0; w < t; w++ {
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(grain))) - grain
				if lo >= n {
					return
				}
				hi := lo + grain
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					body(i)
				}
			}
		}()
	}
	wg.Wait()
}

// Reduce computes the combination of body(lo,hi) partial results over
// [0, n) using comb, starting from identity. comb must be associative.
func Reduce[T any](n int, identity T, body func(lo, hi int) T, comb func(a, b T) T) T {
	if n > 0 && Threads(n) == 1 {
		return comb(identity, body(0, n)) // no per-block slice on the tiny path
	}
	acc := identity
	for _, part := range Blocks(n, nil, body) {
		acc = comb(acc, part)
	}
	return acc
}

// ExclusiveScan replaces counts[0..n-1] with its exclusive prefix sum and
// returns the total. counts must have length n+1; counts[n] receives the
// total as well, making the result directly usable as a CSR row pointer.
func ExclusiveScan(counts []int) int {
	total := 0
	for i := 0; i < len(counts); i++ {
		c := counts[i]
		counts[i] = total
		total += c
	}
	return counts[len(counts)-1]
}
