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
//   - sparse accumulators (each block of the saxpy MxM or push VxM, and
//     the values of the bitmap view a pull MxV reads a sparse u through)
//     — the generation counter makes reuse free of clearing;
//   - byte slabs: the mask row an allow scatters for O(1) lookups. A slab
//     is borrowed all-zero and must be returned all-zero;
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

// slabPool recycles the byte slabs. It holds pointers so that Put does not
// allocate a slice header per call.
var slabPool sync.Pool

// getSlab returns an all-zero byte slab of length n.
func getSlab(n int) *[]int8 {
	if PoolEnabled() {
		if v := slabPool.Get(); v != nil {
			s := v.(*[]int8)
			if cap(*s) >= n {
				*s = (*s)[:n]
				return s
			}
		}
	}
	s := make([]int8, n)
	return &s
}

// putSlab returns a slab the caller has zeroed again.
func putSlab(s *[]int8) {
	if s != nil && PoolEnabled() {
		slabPool.Put(s)
	}
}
