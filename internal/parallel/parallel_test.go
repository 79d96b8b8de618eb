package parallel

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestSetMaxThreads(t *testing.T) {
	prev := SetMaxThreads(3)
	defer SetMaxThreads(prev)
	if MaxThreads() != 3 {
		t.Fatalf("MaxThreads = %d", MaxThreads())
	}
	SetMaxThreads(0) // reset to GOMAXPROCS
	if MaxThreads() < 1 {
		t.Fatal("reset gave < 1")
	}
}

func TestThreadsSmallWorkIsSequential(t *testing.T) {
	if Threads(10) != 1 {
		t.Fatalf("tiny work should use 1 thread, got %d", Threads(10))
	}
	if Threads(1<<20) < 1 {
		t.Fatal("huge work gave < 1")
	}
}

func TestForCoversRangeExactlyOnce(t *testing.T) {
	f := func(n uint16) bool {
		size := int(n%5000) + 1
		hits := make([]int32, size)
		For(size, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for _, h := range hits {
			if h != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBlocksCoverRangeInBlockOrder(t *testing.T) {
	for _, n := range []int{0, 1, 7, 3000, 10000} {
		next := 0
		for _, blk := range Blocks(n, nil, func(lo, hi int) [2]int { return [2]int{lo, hi} }) {
			if blk[0] != next || blk[1] <= blk[0] {
				t.Fatalf("n=%d: block [%d,%d) after %d", n, blk[0], blk[1], next)
			}
			next = blk[1]
		}
		if next != n {
			t.Fatalf("n=%d: blocks cover [0,%d)", n, next)
		}
	}
}

// TestBlocksCutByWeight: with a weight, the blocks still cover [0, n)
// exactly once, in order and none empty, and are cut at equal weight —
// W(i) = weight[i] + i, each row counted as its entries plus one — into
// weightedPieces·Threads(n) blocks; a row heavier than a share ends its
// block, and a nil weight cuts as an unweighted call always has: Threads(n)
// blocks of equal length.
func TestBlocksCutByWeight(t *testing.T) {
	prev := SetMaxThreads(4)
	defer SetMaxThreads(prev)
	const n, heavy = 10000, 3333
	cumulative := func(rowWeight func(i int) int) []int {
		w := make([]int, n+1)
		for i := 0; i < n; i++ {
			w[i+1] = w[i] + rowWeight(i)
		}
		return w
	}
	ramp := cumulative(func(i int) int { return i }) // a degree-sorted graph's shape
	oneRow := cumulative(func(i int) int {
		if i == heavy {
			return 1 << 20
		}
		return 0
	})
	zero := make([]int, n+1)
	pieces := weightedPieces * Threads(n)
	for _, c := range []struct {
		name   string
		weight []int
		want   func(blocks [][2]int) bool
	}{
		{"nil", nil, func(b [][2]int) bool {
			return len(b) == 4 && b[0] == [2]int{0, 2500} && b[3] == [2]int{7500, n}
		}},
		{"zero total", zero, func(b [][2]int) bool {
			for _, blk := range b {
				if l := blk[1] - blk[0]; l != n/pieces && l != n/pieces+1 {
					return false
				}
			}
			return len(b) == pieces
		}},
		{"all in one row", oneRow, func(b [][2]int) bool {
			return len(b) == 2 && b[0][1] == heavy+1
		}},
		{"ramp", ramp, func(b [][2]int) bool {
			share := (ramp[n] + n) / pieces
			for _, blk := range b {
				if w := ramp[blk[1]] + blk[1] - ramp[blk[0]] - blk[0]; w > share+n {
					return false
				}
			}
			return len(b) == pieces
		}},
	} {
		blocks := Blocks(n, c.weight, func(lo, hi int) [2]int { return [2]int{lo, hi} })
		next := 0
		for _, blk := range blocks {
			if blk[0] != next || blk[1] <= blk[0] {
				t.Fatalf("%s: block [%d,%d) after %d", c.name, blk[0], blk[1], next)
			}
			next = blk[1]
		}
		if next != n {
			t.Fatalf("%s: blocks cover [0,%d)", c.name, next)
		}
		if !c.want(blocks) {
			t.Errorf("%s: cut %v", c.name, blocks)
		}
	}
}

func TestGuidedCoverage(t *testing.T) {
	for _, n := range []int{0, 1, 7, 3000, 10000} {
		hits := make([]int32, n)
		Guided(n, 16, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("Guided n=%d: index %d hit %d times", n, i, h)
			}
		}
	}
}

func TestReduceInt64(t *testing.T) {
	n := 100000
	got := Reduce(n, 0, func(lo, hi int) int64 {
		var s int64
		for i := lo; i < hi; i++ {
			s += int64(i)
		}
		return s
	}, func(a, b int64) int64 { return a + b })
	want := int64(n) * int64(n-1) / 2
	if got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
	if Reduce(0, 42, nil, func(a, b int64) int64 { return a + b }) != 42 {
		t.Fatal("empty reduce must return identity")
	}
}

func TestReduceFloat64(t *testing.T) {
	n := 50000
	got := Reduce(n, 0, func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			s++
		}
		return s
	}, func(a, b float64) float64 { return a + b })
	if got != float64(n) {
		t.Fatalf("count = %v", got)
	}
}

func TestExclusiveScan(t *testing.T) {
	counts := []int{3, 0, 2, 5, 0}
	total := ExclusiveScan(counts)
	if total != 10 {
		t.Fatalf("total = %d", total)
	}
	want := []int{0, 3, 3, 5, 10}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("scan[%d] = %d, want %d", i, counts[i], want[i])
		}
	}
	if ExclusiveScan([]int{7}) != 0 {
		t.Fatal("single-element scan total should be 0 (ptr semantics: counts[n]=total)")
	}
}

func TestGuidedBalancesSkewedWork(t *testing.T) {
	// Sanity: guided scheduling must complete with very uneven work.
	n := 4096
	var total int64
	Guided(n, 8, func(i int) {
		work := 1
		if i%512 == 0 {
			work = 1000
		}
		var s int64
		for k := 0; k < work; k++ {
			s++
		}
		atomic.AddInt64(&total, s)
	})
	if total != int64(n-n/512)+int64(n/512)*1000 {
		t.Fatalf("total work = %d", total)
	}
}
