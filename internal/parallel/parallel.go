// Package parallel provides small building blocks for data-parallel loops
// used by the GraphBLAS kernels: a blocked parallel-for, a guided
// parallel-for over irregular work (rows of a sparse matrix), and parallel
// reductions. All helpers degrade to a plain sequential loop when the
// iteration count is small, so callers never need their own size checks.
package parallel

import (
	"runtime"
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

// Blocks is the one fan-out primitive: it splits [0, n) into at most
// Threads(n) contiguous blocks, runs body(lo, hi) on each concurrently and
// returns the per-block results in block order, for the caller to combine.
// A single block runs inline on the caller's goroutine. body must be safe
// to call concurrently on disjoint ranges.
func Blocks[S any](n int, body func(lo, hi int) S) []S {
	if n <= 0 {
		return nil
	}
	t := Threads(n)
	chunk := (n + t - 1) / t
	out := make([]S, (n+chunk-1)/chunk)
	if len(out) == 1 {
		out[0] = body(0, n)
		return out
	}
	var wg sync.WaitGroup
	for b := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lo := b * chunk
			out[b] = body(lo, min(lo+chunk, n))
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
	Blocks(n, func(lo, hi int) struct{} {
		body(lo, hi)
		return struct{}{}
	})
}

// ForEach runs body(i) for every i in [0, n) with static chunking.
func ForEach(n int, body func(i int)) {
	For(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
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
	for _, part := range Blocks(n, body) {
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
