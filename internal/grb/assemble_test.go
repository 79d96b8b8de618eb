package grb

import (
	"fmt"
	"math/rand"
	"testing"
)

// randomTuples returns nt (row, col, value) triples drawn uniformly from an
// nr×nc matrix, duplicates included.
func randomTuples(nr, nc, nt int, seed int64) (rows, cols []int, vals []float64) {
	rng := rand.New(rand.NewSource(seed))
	rows, cols, vals = make([]int, nt), make([]int, nt), make([]float64, nt)
	for k := range rows {
		rows[k], cols[k], vals[k] = rng.Intn(nr), rng.Intn(nc), float64(1+rng.Intn(9))
	}
	return rows, cols, vals
}

// BenchmarkMatrixFromTuples builds a 2¹⁶×2¹⁶ matrix from 2²⁰ random tuples.
func BenchmarkMatrixFromTuples(b *testing.B) {
	const n, nt = 1 << 16, 1 << 20
	rows, cols, vals := randomTuples(n, n, nt, 1)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := MatrixFromTuples(n, n, rows, cols, vals, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWaitPendingLog assembles a log of operations, a quarter of them
// deletions, onto a snapshot: the finalize of streamed mutation batches.
// The first case is 4 096 operations on a 2¹⁴×2¹⁴ matrix of 2¹⁹ entries;
// the second, 256 on 2¹³×2¹³ with 2¹⁷, is a Kron-13 graph's one batch,
// where a parallel sort would cost more than it saves.
func BenchmarkWaitPendingLog(b *testing.B) {
	for _, c := range []struct{ n, nt, ops int }{{1 << 14, 1 << 19, 4096}, {1 << 13, 1 << 17, 256}} {
		b.Run(fmt.Sprintf("ops=%d/nnz=%d", c.ops, c.nt), func(b *testing.B) {
			rows, cols, vals := randomTuples(c.n, c.n, c.nt, 2)
			base, err := MatrixFromTuples(c.n, c.n, rows, cols, vals, nil)
			if err != nil {
				b.Fatal(err)
			}
			src, _ := base.Snapshot()
			rng := rand.New(rand.NewSource(3))
			for k := 0; k < c.ops; k++ {
				if i, j := rng.Intn(c.n), rng.Intn(c.n); k%4 == 0 {
					src.RemoveElement(i, j)
				} else {
					src.SetElement(float64(k), i, j)
				}
			}
			b.ReportAllocs()
			for b.Loop() {
				snap, _ := src.Snapshot()
				snap.Wait()
			}
		})
	}
}
