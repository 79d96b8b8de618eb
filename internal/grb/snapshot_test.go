package grb

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// tuplesOf flattens a matrix into comparable (i, j, x) triples.
func tuplesOf[T Value](t *testing.T, m *Matrix[T]) ([]int, []int, []T) {
	t.Helper()
	r, c, v := m.ExtractTuples()
	return r, c, v
}

func buildSnapshotBase(t *testing.T) *Matrix[float64] {
	t.Helper()
	m, err := MatrixFromTuples(4, 4,
		[]int{0, 0, 1, 2, 3},
		[]int{1, 3, 2, 0, 3},
		[]float64{1, 2, 3, 4, 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSnapshotIsCopyOnWrite(t *testing.T) {
	base := buildSnapshotBase(t)
	br, bc, bv := tuplesOf(t, base)

	snap, err := base.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Mutate the snapshot: update an existing entry, insert a new one,
	// delete an existing one. None of it may touch the base.
	if err := snap.SetElement(9, 0, 1); err != nil { // update in place would corrupt base
		t.Fatal(err)
	}
	if err := snap.SetElement(7, 3, 0); err != nil {
		t.Fatal(err)
	}
	if err := snap.RemoveElement(1, 2); err != nil {
		t.Fatal(err)
	}
	if snap.PendingTuples() != 3 {
		t.Fatalf("pending = %d, want 3", snap.PendingTuples())
	}
	if base.PendingTuples() != 0 {
		t.Fatal("mutating the snapshot dirtied the base")
	}

	// Assemble the snapshot and check the delta applied.
	if n := snap.NVals(); n != 5 { // 5 - 1 delete + 1 insert
		t.Fatalf("snapshot nvals = %d, want 5", n)
	}
	if x, err := snap.ExtractElement(0, 1); err != nil || x != 9 {
		t.Fatalf("snap(0,1) = %v, %v; want 9", x, err)
	}
	if x, err := snap.ExtractElement(3, 0); err != nil || x != 7 {
		t.Fatalf("snap(3,0) = %v, %v; want 7", x, err)
	}
	if _, err := snap.ExtractElement(1, 2); err == nil {
		t.Fatal("snap(1,2) survived its tombstone")
	}

	// The base is byte-for-byte what it was.
	ar, ac, av := tuplesOf(t, base)
	if !reflect.DeepEqual(ar, br) || !reflect.DeepEqual(ac, bc) || !reflect.DeepEqual(av, bv) {
		t.Fatalf("base changed: had (%v,%v,%v), now (%v,%v,%v)", br, bc, bv, ar, ac, av)
	}
}

func TestSnapshotDeleteThenReinsertDropsBaseValue(t *testing.T) {
	base := buildSnapshotBase(t)
	snap, err := base.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// A delete severs the position from its base value: the re-inserted
	// value stands alone.
	snap.RemoveElement(0, 1) // base holds 1
	snap.SetElement(10, 0, 1)
	snap.Wait()
	if x, _ := snap.ExtractElement(0, 1); x != 10 {
		t.Fatalf("delete+reinsert = %v, want 10 (base value must not survive)", x)
	}
}

func TestSnapshotUpsertThenDelete(t *testing.T) {
	base := buildSnapshotBase(t)
	snap, err := base.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap.SetElement(42, 2, 2) // brand-new entry...
	snap.RemoveElement(2, 2)  // ...deleted in the same batch
	snap.RemoveElement(3, 3)  // existing entry deleted
	snap.RemoveElement(1, 1)  // tombstone on an absent entry: no-op
	if n := snap.NVals(); n != 4 {
		t.Fatalf("nvals = %d, want 4", n)
	}
	if _, err := snap.ExtractElement(2, 2); err == nil {
		t.Fatal("insert+delete left an entry behind")
	}
	if _, err := snap.ExtractElement(3, 3); err == nil {
		t.Fatal("deleted base entry still present")
	}
}

func TestSnapshotOfSnapshotChains(t *testing.T) {
	base := buildSnapshotBase(t)
	s1, err := base.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	s1.SetElement(1, 1, 1)
	s1.Wait() // private arrays now

	s2, err := s1.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	s2.RemoveElement(1, 1)
	s2.Wait()
	if _, err := s1.ExtractElement(1, 1); err != nil {
		t.Fatal("s2's delete leaked into s1")
	}
	if _, err := s2.ExtractElement(1, 1); err == nil {
		t.Fatal("s2 kept the deleted entry")
	}
}

func TestSnapshotSharesPendingRejectsJumbledAndBitmap(t *testing.T) {
	m := MustMatrix[float64](2, 2)
	m.SetElement(1, 0, 0)
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatalf("snapshot of a matrix with pending tuples rejected: %v", err)
	}
	if snap.PendingTuples() != 1 {
		t.Fatalf("snapshot holds %d pending operations, want the source's 1", snap.PendingTuples())
	}
	m.Wait()
	m.jumbled = true
	if _, err := m.Snapshot(); err == nil {
		t.Fatal("snapshot of a jumbled matrix accepted")
	}
	m.Wait()
	m.ConvertTo(FormatBitmap)
	if _, err := m.Snapshot(); err == nil {
		t.Fatal("snapshot of a bitmap matrix accepted")
	}
}

func TestAdvanceRejectsBadBaseOrPrefix(t *testing.T) {
	m := buildSnapshotBase(t)
	head, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	head.SetElement(6, 1, 1)
	done, err := head.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := head.Advance(done, 1); err == nil {
		t.Fatal("advance onto an unassembled base accepted")
	}
	done.Wait()
	if err := head.Advance(MustMatrix[float64](4, 5), 0); err == nil {
		t.Fatal("advance onto a base of another shape accepted")
	}
	for _, k := range []int{-1, 2} {
		if err := head.Advance(done, k); err == nil {
			t.Fatalf("advance by %d of 1 pending operation accepted", k)
		}
	}
	if err := head.Advance(done, 1); err != nil || head.PendingTuples() != 0 {
		t.Fatalf("advance by the whole log: %v, %d left pending", err, head.PendingTuples())
	}
}

// ---------------------------------------------------------------------------
// MatrixFromTuples dup handling with self-loops.

func TestMatrixFromTuplesDupWithSelfLoops(t *testing.T) {
	// Three copies of the self-loop (1,1), two of (0,2), one plain entry.
	rows := []int{1, 0, 1, 2, 0, 1}
	cols := []int{1, 2, 1, 0, 2, 1}
	vals := []int64{1, 10, 2, 100, 20, 4}

	// dup = plus: duplicates sum, including on the diagonal.
	m, err := MatrixFromTuples(3, 3, rows, cols, vals,
		func(a, b int64) int64 { return a + b })
	if err != nil {
		t.Fatal(err)
	}
	if n := m.NVals(); n != 3 {
		t.Fatalf("nvals = %d, want 3", n)
	}
	if x, _ := m.ExtractElement(1, 1); x != 7 {
		t.Fatalf("self-loop sum = %d, want 7", x)
	}
	if x, _ := m.ExtractElement(0, 2); x != 30 {
		t.Fatalf("(0,2) sum = %d, want 30", x)
	}

	// dup = nil keeps the last tuple in input order.
	m2, err := MatrixFromTuples(3, 3, rows, cols, vals, nil)
	if err != nil {
		t.Fatal(err)
	}
	if x, _ := m2.ExtractElement(1, 1); x != 4 {
		t.Fatalf("self-loop last-wins = %d, want 4", x)
	}
	if x, _ := m2.ExtractElement(0, 2); x != 20 {
		t.Fatalf("(0,2) last-wins = %d, want 20", x)
	}
}

// TestQuickAssemblePendingAgainstRebuild replays random operation logs
// onto a receiver and compares the assembled arrays with ones rebuilt from
// a map model of the same calls: duplicates in call order,
// delete-then-reinsert, insert-then-delete, tombstones on absent entries,
// rows left untouched at the start, middle and end, empty rows, and logs
// from one operation to several per row. The last operation on a position
// wins, and every call buffers. The receiver is one more input:
//   - a Snapshot of the finished base, whose shared arrays must come out
//     unchanged;
//   - the private base matrix itself;
//   - a Vector holding one row of the model, which takes that row's
//     operations;
//   - a Snapshot taken mid-log of a base holding pending operations: the
//     log's tail goes to the clone while operations outside the model
//     interleave on the source, whose arrays and pending list must come out
//     unchanged;
//   - a Snapshot advanced mid-log onto the assembly of a random prefix of
//     its operations, which must drop its pending count by the prefix;
//   - a Snapshot assembling its log with a summing dup, after an insert, a
//     tombstone and an insert on a position its base holds: a run of
//     inserts sums, a tombstone restarts it, and the run replaces the
//     base's entry, so that position holds the last insert alone.
//
// The builders share the assembly, so two more inputs build from random
// tuples, duplicates included (checkBuild).
func TestQuickAssemblePendingAgainstRebuild(t *testing.T) {
	const (
		snapshotReceiver = iota
		baseReceiver
		vectorReceiver
		pendingSnapshotReceiver
		advancedReceiver
		summingReceiver
		matrixBuild
		vectorBuild
	)
	f := func(seed int64, receiver uint8) bool {
		kind := int(receiver % 8)
		rng := rand.New(rand.NewSource(seed))
		if kind == matrixBuild || kind == vectorBuild {
			return checkBuild(t, rng, seed, kind == vectorBuild)
		}
		n := []int{1, 2, 7, 40, 200}[rng.Intn(5)]
		nc := 1 + rng.Intn(2*n)
		model := map[[2]int]float64{}
		for i := 0; i < n; i++ {
			if rng.Intn(4) == 0 {
				continue // an empty row
			}
			for k := rng.Intn(6); k > 0; k-- {
				model[[2]int{i, rng.Intn(nc)}] = float64(1 + rng.Intn(9))
			}
		}
		base := matrixFromModel(t, n, nc, model)
		basePtr, baseIdx, baseVal := slices.Clone(base.ptr), slices.Clone(base.idx), slices.Clone(base.val)

		// Operations land in up to two row windows, so whole runs of rows
		// before, between and after them stay untouched; a vector's land in
		// its one row.
		var rows []int
		for w := 1 + rng.Intn(2); w > 0; w-- {
			lo := rng.Intn(n)
			for i := lo; i < min(n, lo+1+rng.Intn(1+n/4)); i++ {
				rows = append(rows, i)
			}
		}
		recv, vec := base, (*Vector[float64])(nil)
		switch kind {
		case snapshotReceiver, advancedReceiver, summingReceiver:
			snap, err := base.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			recv = snap
		case vectorReceiver:
			rows = rows[:1]
			lo, hi := base.ptr[rows[0]], base.ptr[rows[0]+1]
			v, err := VectorFromTuples(nc, base.idx[lo:hi], base.val[lo:hi], nil)
			if err != nil {
				t.Fatal(err)
			}
			vec = v
		}
		set := func(x float64, i, j int) error { return recv.SetElement(x, i, j) }
		remove := func(i, j int) error { return recv.RemoveElement(i, j) }
		pendingOps := func() int { return recv.PendingTuples() }
		if vec != nil {
			set = func(x float64, _, j int) error { return vec.SetElement(x, j) }
			remove = func(_, j int) error { return vec.RemoveElement(j) }
			pendingOps = vec.PendingTuples
		}

		nops := []int{1, 3, 48, max(1, n/16), n/16 + 1, 4 * n}[rng.Intn(6)]
		split := rng.Intn(nops + 1) // where the clone is taken, or the receiver advanced
		prefix := rng.Intn(split + 1)
		var early *Matrix[float64]     // the advanced receiver after its first prefix operations
		var srcPend []pending[float64] // the clone's source's pending list, as it must stay
		hot := [][2]int{}              // positions revisited, so one position folds several calls
		run := map[[2]int]float64{}    // summingReceiver: what each position's run of inserts sums to
		summing, lead := kind == summingReceiver, 0
		if summing && len(base.idx) > 0 {
			pos := [2]int{sort.SearchInts(base.ptr, 1) - 1, base.idx[0]}
			set(5, pos[0], pos[1])
			remove(pos[0], pos[1])
			set(7, pos[0], pos[1])
			model[pos], run[pos], hot, lead = 7, 7, append(hot, pos), 3
		}
		for k := 0; k <= nops; k++ {
			if kind == advancedReceiver && k == prefix {
				early, _ = recv.Snapshot()
			}
			if kind == advancedReceiver && k == split {
				early.Wait()
				before := recv.PendingTuples()
				if err := recv.Advance(early, prefix); err != nil {
					t.Fatal(err)
				}
				if got := recv.PendingTuples(); got != before-prefix {
					t.Errorf("seed %d: advancing by %d left %d of %d pending", seed, prefix, got, before)
					return false
				}
			}
			if kind == pendingSnapshotReceiver && k == split {
				clone, err := base.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				recv, srcPend = clone, slices.Clone(base.pend)
			}
			if k == nops {
				break
			}
			if kind == pendingSnapshotReceiver && k >= split && rng.Intn(2) == 0 {
				// An operation on the source the clone must never see.
				op := pending[float64]{i: rng.Intn(n), j: rng.Intn(nc), x: float64(100 + k), del: rng.Intn(3) == 0}
				if op.del {
					base.RemoveElement(op.i, op.j)
					op.x = 0
				} else {
					base.SetElement(op.x, op.i, op.j)
				}
				srcPend = append(srcPend, op)
			}
			pos := [2]int{rows[rng.Intn(len(rows))], rng.Intn(nc)}
			if len(hot) > 0 && rng.Intn(3) == 0 {
				pos = hot[rng.Intn(len(hot))]
			}
			hot = append(hot, pos)
			if rng.Intn(3) == 0 {
				if err := remove(pos[0], pos[1]); err != nil {
					t.Fatal(err)
				}
				delete(model, pos)
				delete(run, pos)
				continue
			}
			x := float64(1 + rng.Intn(9))
			if err := set(x, pos[0], pos[1]); err != nil {
				t.Fatal(err)
			}
			if y, ok := run[pos]; ok && summing {
				x += y
			}
			model[pos], run[pos] = x, x
		}
		buffered := nops + lead
		if kind == advancedReceiver {
			buffered -= prefix
		}
		if got := pendingOps(); got != buffered {
			t.Fatalf("seed %d receiver %d: %d operations buffered, want %d", seed, kind, got, buffered)
		}

		want := matrixFromModel(t, n, nc, model)
		if vec != nil {
			vec.Wait()
			lo, hi := want.ptr[rows[0]], want.ptr[rows[0]+1]
			if !slices.Equal(vec.idx, want.idx[lo:hi]) || !slices.Equal(vec.val, want.val[lo:hi]) || vec.PendingTuples() != 0 {
				t.Errorf("seed %d (length %d, %d ops): assembled vector\n idx %v\n val %v\nrebuilt row %d\n idx %v\n val %v",
					seed, nc, nops, vec.idx, vec.val, rows[0], want.idx[lo:hi], want.val[lo:hi])
				return false
			}
			return true
		}
		if summing {
			log := recv.pend
			recv.pend = nil
			recv.assemble(tuples[float64]{log: log}, func(a, b float64) float64 { return a + b })
		}
		recv.Wait()
		if !slices.Equal(recv.ptr, want.ptr) || !slices.Equal(recv.idx, want.idx) || !slices.Equal(recv.val, want.val) {
			t.Errorf("seed %d receiver %d (%dx%d, %d ops): assembled\n ptr %v\n idx %v\n val %v\nrebuilt\n ptr %v\n idx %v\n val %v",
				seed, kind, n, nc, nops, recv.ptr, recv.idx, recv.val, want.ptr, want.idx, want.val)
			return false
		}
		if recv.PendingTuples() != 0 {
			t.Errorf("seed %d receiver %d: assembled matrix still pending", seed, kind)
			return false
		}
		if kind != baseReceiver && (!slices.Equal(base.ptr, basePtr) || !slices.Equal(base.idx, baseIdx) || !slices.Equal(base.val, baseVal)) {
			t.Errorf("seed %d receiver %d: assembling the snapshot changed its base", seed, kind)
			return false
		}
		if kind == pendingSnapshotReceiver && !slices.Equal(base.pend, srcPend) {
			t.Errorf("seed %d: the clone's operations leaked into its source's pending list", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 640, Rand: rand.New(rand.NewSource(21))}); err != nil {
		t.Fatal(err)
	}
}

// checkBuild is the builders' input to TestQuickAssemblePendingAgainstRebuild:
// random tuples, duplicates and empty rows included, built with a summing
// dup by MatrixFromTuples, against the map model — or, for a vector, by
// VectorFromTuples, against MatrixFromTuples on one row.
func checkBuild(t *testing.T, rng *rand.Rand, seed int64, vector bool) bool {
	nr, nc := []int{1, 2, 7, 40}[rng.Intn(4)], 1+rng.Intn(60)
	if vector {
		nr = 1
	}
	nt := rng.Intn(4 * nr * nc)
	rows, cols, vals := make([]int, nt), make([]int, nt), make([]float64, nt)
	model := map[[2]int]float64{}
	for k := range rows {
		rows[k], cols[k], vals[k] = rng.Intn(nr), rng.Intn(nc), float64(1+rng.Intn(9))
		model[[2]int{rows[k], cols[k]}] += vals[k]
	}
	sum := func(a, b float64) float64 { return a + b }
	got, err := MatrixFromTuples(nr, nc, rows, cols, vals, sum)
	if err != nil {
		t.Fatal(err)
	}
	want := matrixFromModel(t, nr, nc, model)
	if vector {
		v, err := VectorFromTuples(nc, cols, vals, sum)
		if err != nil {
			t.Fatal(err)
		}
		want, got = got, &Matrix[float64]{v.store}
	}
	if !slices.Equal(got.ptr, want.ptr) || !slices.Equal(got.idx, want.idx) || !slices.Equal(got.val, want.val) {
		t.Errorf("seed %d (%dx%d, %d tuples, vector %v): built\n ptr %v\n idx %v\n val %v\nwant\n ptr %v\n idx %v\n val %v",
			seed, nr, nc, nt, vector, got.ptr, got.idx, got.val, want.ptr, want.idx, want.val)
		return false
	}
	return true
}

// matrixFromModel builds a finished sparse matrix holding exactly the
// model's entries.
func matrixFromModel(t *testing.T, nr, nc int, model map[[2]int]float64) *Matrix[float64] {
	t.Helper()
	var rows, cols []int
	var vals []float64
	for pos, x := range model {
		rows, cols, vals = append(rows, pos[0]), append(cols, pos[1]), append(vals, x)
	}
	m, err := MatrixFromTuples(nr, nc, rows, cols, vals, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.Wait()
	return m
}
