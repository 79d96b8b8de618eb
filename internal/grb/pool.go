package grb

import (
	"reflect"
	"sync"
	"sync/atomic"
)

// Scratch-space pooling. The paper's §VI-B attributes much of the Road
// graph pathology to per-call allocation: "Each call to GraphBLAS does
// several malloc and frees … A future version of SS:GrB is planned that
// will eliminate this work entirely, by implementing an internal memory
// pool." This file implements that future-work feature for everything a
// call needs that is sized by a vector length but is not its result:
//
//   - sparse accumulators (each block of the saxpy MxM or push VxM, each
//     row of the masked dot) — the generation counter makes reuse free;
//   - slices: a mask row an allow scatters, and the cells and values of
//     the bitmap a pull MxV reads a sparse u through or a fused pull level
//     sums into. A byte slab is borrowed all-zero and returned all-zero;
//   - the write-back of a call (writeback.go), its sinks included.
//
// Not pooled: results (index/value arrays, bitmap cells, the row builder's
// per-block buffers and row counts) and view headers — those wait for the
// per-kernel-run arena (ROADMAP). Nothing of size nrows·ncols or nnz(A)
// is ever retained, and sync.Pool drops what a GC cycle finds idle.
// SetPoolEnabled(false) restores allocate-per-call behaviour for the
// ablation benchmarks.

var poolEnabled atomic.Bool

func init() { poolEnabled.Store(true) }

// SetPoolEnabled toggles the internal scratch pool, returning the previous
// setting.
func SetPoolEnabled(on bool) bool {
	old := poolEnabled.Load()
	poolEnabled.Store(on)
	return old
}

// PoolEnabled reports whether kernel scratch space is recycled.
func PoolEnabled() bool { return poolEnabled.Load() }

// pools holds one sync.Pool per pooled type, keyed by the reflect.Type of
// a pointer to it.
var pools sync.Map

// poolOf returns the pool of *P.
func poolOf[P any]() *sync.Pool {
	rt := reflect.TypeOf((*P)(nil))
	if pi, ok := pools.Load(rt); ok {
		return pi.(*sync.Pool)
	}
	pi, _ := pools.LoadOrStore(rt, &sync.Pool{})
	return pi.(*sync.Pool)
}

// getSPA returns a sparse accumulator of at least size n, recycled when the
// pool is enabled. The generation counter in spa makes a recycled
// accumulator immediately valid: stale marks hold older generations.
func getSPA[T Value](n int) *spa[T] {
	if !PoolEnabled() {
		return newSPA[T](n)
	}
	if v := poolOf[spa[T]]().Get(); v != nil {
		s := v.(*spa[T])
		if cap(s.mark) >= n {
			s.mark = s.mark[:n]
			s.val = s.val[:n]
			return s
		}
	}
	return newSPA[T](n)
}

// putSPA returns an accumulator to the pool.
func putSPA[T Value](s *spa[T]) {
	if s != nil && PoolEnabled() {
		poolOf[spa[T]]().Put(s)
	}
}

// getWriteBack returns a zero write-back, recycled when the pool is
// enabled; putWriteBack clears it, so that the pool holds no result.
func getWriteBack[T Value]() *writeBack[T] {
	if PoolEnabled() {
		if v := poolOf[writeBack[T]]().Get(); v != nil {
			return v.(*writeBack[T])
		}
	}
	return new(writeBack[T])
}

func putWriteBack[T Value](wb *writeBack[T]) {
	*wb = writeBack[T]{}
	if PoolEnabled() {
		poolOf[writeBack[T]]().Put(wb)
	}
}

// getSlice returns a slice of length n, recycled when the pool is enabled:
// its values are stale, a byte slab's zero. Pointers spare Put a header.
func getSlice[T Value](n int) *[]T {
	if PoolEnabled() {
		if v := poolOf[[]T]().Get(); v != nil {
			if s := v.(*[]T); cap(*s) >= n {
				*s = (*s)[:n]
				return s
			}
		}
	}
	s := make([]T, n)
	return &s
}

// putSlice returns a slice, a slab zeroed again.
func putSlice[T Value](s *[]T) {
	if s != nil && PoolEnabled() {
		poolOf[[]T]().Put(s)
	}
}
