package grb

import "lagraph/internal/parallel"

// buildVectorByIndex constructs a sparse vector by evaluating entryFn for
// every index in parallel; entries where ok is false are absent. Used by
// pull-style kernels where each output element is independent.
func buildVectorByIndex[T Value](n int, entryFn func(i int) (T, bool)) *Vector[T] {
	v := MustVector[T](n)
	if n == 0 {
		return v
	}
	type block struct {
		idx []int
		val []T
	}
	blocks := parallel.Blocks(n, nil, func(lo, hi int) block {
		var blk block
		for i := lo; i < hi; i++ {
			if x, ok := entryFn(i); ok {
				blk.idx = append(blk.idx, i)
				blk.val = append(blk.val, x)
			}
		}
		return blk
	})
	total := 0
	for b := range blocks {
		total += len(blocks[b].idx)
	}
	v.idx = make([]int, 0, total)
	v.val = make([]T, 0, total)
	for b := range blocks {
		v.idx = append(v.idx, blocks[b].idx...)
		v.val = append(v.val, blocks[b].val...)
	}
	return v
}

// spa is a sparse accumulator: dense value/flag arrays plus a touched list
// for O(nnz) reset. One per worker in saxpy-style kernels.
type spa[T Value] struct {
	mark    []int32
	val     []T
	gen     int32
	touched []int
}

func newSPA[T Value](n int) *spa[T] {
	return &spa[T]{mark: make([]int32, n), val: make([]T, n), gen: 0}
}

// reset prepares the accumulator for a new row.
func (s *spa[T]) reset() {
	if s.gen == 1<<31-1 {
		// Generation counter wrap (possible only with pooling): clear.
		for i := range s.mark {
			s.mark[i] = 0
		}
		s.gen = 0
	}
	s.gen++
	s.touched = s.touched[:0]
}

// has reports whether index j holds a value for the current row.
func (s *spa[T]) has(j int) bool { return s.mark[j] == s.gen }

// put stores the first value for index j.
func (s *spa[T]) put(j int, x T) {
	s.mark[j] = s.gen
	s.val[j] = x
	s.touched = append(s.touched, j)
}
