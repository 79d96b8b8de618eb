package grb

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewMatrixValidation(t *testing.T) {
	if _, err := NewMatrix[int64](-1, 3); err == nil {
		t.Fatal("negative rows accepted")
	}
	m, err := NewMatrix[int64](3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r, c := m.Dims(); r != 3 || c != 4 {
		t.Fatalf("dims = %d,%d", r, c)
	}
	if m.NVals() != 0 {
		t.Fatalf("new matrix has %d vals", m.NVals())
	}
	if m.Format() != FormatSparse {
		t.Fatalf("new matrix format %v", m.Format())
	}
}

func TestSetElementCreatesPendingTuples(t *testing.T) {
	m := MustMatrix[float64](4, 4)
	if err := m.SetElement(1.5, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := m.SetElement(2.5, 3, 0); err != nil {
		t.Fatal(err)
	}
	if m.PendingTuples() != 2 {
		t.Fatalf("pending = %d, want 2", m.PendingTuples())
	}
	// NVals assembles.
	if n := m.NVals(); n != 2 {
		t.Fatalf("nvals = %d, want 2", n)
	}
	if m.PendingTuples() != 0 {
		t.Fatal("pending tuples not assembled by NVals")
	}
	got, err := m.ExtractElement(1, 2)
	if err != nil || got != 1.5 {
		t.Fatalf("A(1,2) = %v, %v", got, err)
	}
}

func TestSetElementDuplicatePendingLastWins(t *testing.T) {
	m := MustMatrix[int32](2, 2)
	m.SetElement(1, 0, 1)
	m.SetElement(7, 0, 1) // second pending tuple on the same position
	m.Wait()
	got, _ := m.ExtractElement(0, 1)
	if got != 7 {
		t.Fatalf("duplicate pending tuple: got %d, want 7 (last wins)", got)
	}
}

func TestSetElementBuffersUpdateOfExisting(t *testing.T) {
	m := mustFromTuples(t, 3, 3, []int{0, 1}, []int{1, 2}, []int64{10, 20})
	idx, val := m.idx, m.val
	if err := m.SetElement(99, 0, 1); err != nil {
		t.Fatal(err)
	}
	if m.PendingTuples() != 1 || val[0] != 10 {
		t.Fatalf("update of a present entry: %d pending, stored value %d; want 1 pending, 10 untouched", m.PendingTuples(), val[0])
	}
	got, _ := m.ExtractElement(0, 1)
	if got != 99 {
		t.Fatalf("got %d, want 99", got)
	}
	if &m.idx[0] == &idx[0] {
		t.Fatal("assembly reused the arrays a snapshot may share")
	}
}

func TestRemoveElementCreatesTombstone(t *testing.T) {
	m := mustFromTuples(t, 3, 3, []int{0, 0, 1}, []int{0, 1, 2}, []int64{1, 2, 3})
	if err := m.RemoveElement(0, 1); err != nil {
		t.Fatal(err)
	}
	if m.PendingTuples() != 1 {
		t.Fatalf("pending = %d, want 1 tombstone", m.PendingTuples())
	}
	if _, err := m.ExtractElement(0, 1); !IsNoValue(err) {
		t.Fatalf("deleted entry still visible: %v", err)
	}
	if n := m.NVals(); n != 2 {
		t.Fatalf("nvals = %d, want 2", n)
	}
	if m.PendingTuples() != 0 {
		t.Fatal("tombstone not assembled by Wait")
	}
	// Removing a missing entry is a no-op.
	if err := m.RemoveElement(2, 2); err != nil {
		t.Fatal(err)
	}
	if m.NVals() != 2 {
		t.Fatal("removing a missing entry changed nvals")
	}
}

func TestTombstoneReviveViaSetElement(t *testing.T) {
	m := mustFromTuples(t, 2, 2, []int{0}, []int{1}, []int64{5})
	m.RemoveElement(0, 1)
	m.SetElement(6, 0, 1)
	if m.PendingTuples() != 2 {
		t.Fatalf("pending = %d, want the tombstone and the store behind it", m.PendingTuples())
	}
	got, _ := m.ExtractElement(0, 1)
	if got != 6 {
		t.Fatalf("got %d, want 6", got)
	}
	if m.NVals() != 1 {
		t.Fatalf("nvals = %d, want 1", m.NVals())
	}
}

func TestMatrixFromTuplesSortsAndCombinesDuplicates(t *testing.T) {
	rows := []int{2, 0, 2, 0, 2}
	cols := []int{3, 1, 3, 0, 1}
	vals := []int64{5, 7, 6, 8, 9}
	m, err := MatrixFromTuples(3, 4, rows, cols, vals, func(a, b int64) int64 { return a + b })
	if err != nil {
		t.Fatal(err)
	}
	if m.NVals() != 4 {
		t.Fatalf("nvals = %d, want 4", m.NVals())
	}
	got, _ := m.ExtractElement(2, 3)
	if got != 11 {
		t.Fatalf("dup combine: got %d, want 11", got)
	}
	r, c, v := m.ExtractTuples()
	wantR := []int{0, 0, 2, 2}
	wantC := []int{0, 1, 1, 3}
	wantV := []int64{8, 7, 9, 11}
	if !reflect.DeepEqual(r, wantR) || !reflect.DeepEqual(c, wantC) || !reflect.DeepEqual(v, wantV) {
		t.Fatalf("tuples = %v %v %v", r, c, v)
	}
}

func TestMatrixFromTuplesIndexValidation(t *testing.T) {
	if _, err := MatrixFromTuples(2, 2, []int{5}, []int{0}, []int64{1}, nil); err == nil {
		t.Fatal("out-of-range row accepted")
	}
	if _, err := MatrixFromTuples(2, 2, []int{0}, []int{0, 1}, []int64{1, 2}, nil); err == nil {
		t.Fatal("mismatched array lengths accepted")
	}
}

func TestBuildExtractRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nr, nc := 1+rng.Intn(20), 1+rng.Intn(20)
		n := rng.Intn(60)
		type key struct{ i, j int }
		want := map[key]float64{}
		rows := make([]int, 0, n)
		cols := make([]int, 0, n)
		vals := make([]float64, 0, n)
		for k := 0; k < n; k++ {
			i, j := rng.Intn(nr), rng.Intn(nc)
			x := rng.Float64()
			rows = append(rows, i)
			cols = append(cols, j)
			vals = append(vals, x)
			want[key{i, j}] = x // last wins
		}
		m, err := MatrixFromTuples(nr, nc, rows, cols, vals, nil)
		if err != nil {
			return false
		}
		r, c, v := m.ExtractTuples()
		if len(r) != len(want) {
			return false
		}
		for k := range r {
			if want[key{r[k], c[k]}] != v[k] {
				return false
			}
		}
		// Row-major sorted order.
		return sort.SliceIsSorted(r, func(a, b int) bool {
			if r[a] != r[b] {
				return r[a] < r[b]
			}
			return c[a] < c[b]
		})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestFormatConversionsRoundTrip converts a matrix and a vector, each with
// holes and complete, from every format to every format: the entries never
// change, and the format becomes the one asked for, except that
// ConvertTo(FormatFull) is refused while there are holes. A full store that
// loses an entry through RemoveElement turns bitmap.
func TestFormatConversionsRoundTrip(t *testing.T) {
	formats := []Format{FormatSparse, FormatBitmap, FormatFull}
	for _, in := range []struct {
		name   string
		nr, nc int
		vector bool
	}{{"matrix", 3, 4, false}, {"vector", 1, 6, true}} {
		size := in.nr * in.nc
		cells := func(s *store[float64]) []float64 { // every cell's value, -1 for none
			out := make([]float64, size)
			for p := range out {
				x, err := s.ExtractElement(p/in.nc, p%in.nc)
				if err != nil {
					x = -1
				}
				out[p] = x
			}
			return out
		}
		for _, nvals := range []int{size - 2, size} {
			for _, from := range formats {
				for _, to := range formats {
					if from == FormatFull && nvals < size {
						continue
					}
					s := shapedStore(t, in.nr, in.nc, in.vector, nvals, from)
					want := cells(s)
					s.ConvertTo(to)
					wantF := to
					if to == FormatFull && nvals < size {
						wantF = from
					}
					if got := cells(s); s.Format() != wantF || !reflect.DeepEqual(got, want) {
						t.Errorf("%s with %d of %d entries, %v → %v: %v holding %v, want %v holding %v",
							in.name, nvals, size, from, to, s.Format(), got, wantF, want)
					}
				}
			}
		}
		s := shapedStore(t, in.nr, in.nc, in.vector, size, FormatFull)
		if err := s.RemoveElement(0, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := s.ExtractElement(0, 1); s.Format() != FormatBitmap || s.NVals() != size-1 || err != ErrNoValue {
			t.Errorf("%s: full after RemoveElement is %v with %d entries (%v at the removed one)", in.name, s.Format(), s.NVals(), err)
		}
	}
}

func TestDupIndependence(t *testing.T) {
	m := mustFromTuples(t, 2, 2, []int{0}, []int{1}, []int64{5})
	c := m.Dup()
	m.SetElement(9, 1, 1)
	m.Wait()
	if c.NVals() != 1 {
		t.Fatal("Dup shares storage with original")
	}
}

func TestClear(t *testing.T) {
	m := mustFromTuples(t, 2, 2, []int{0, 1}, []int{1, 0}, []int64{5, 6})
	m.ConvertTo(FormatBitmap)
	m.Clear()
	if m.NVals() != 0 || m.Format() != FormatSparse {
		t.Fatalf("clear: nvals=%d format=%v", m.NVals(), m.Format())
	}
}

func TestImportExportCSR(t *testing.T) {
	ptr := []int{0, 2, 2, 3}
	idx := []int{0, 2, 1}
	val := []float64{1, 2, 3}
	m, err := ImportCSR(3, 3, ptr, idx, val, false)
	if err != nil {
		t.Fatal(err)
	}
	if m.NVals() != 3 {
		t.Fatalf("nvals = %d", m.NVals())
	}
	p2, i2, v2 := m.ExportCSR()
	if !reflect.DeepEqual(p2, ptr) || !reflect.DeepEqual(i2, idx) || !reflect.DeepEqual(v2, val) {
		t.Fatal("export mismatch")
	}
	if _, err := ImportCSR(3, 3, []int{0, 1}, idx, val, false); err == nil {
		t.Fatal("inconsistent import accepted")
	}
}

func TestJumbledImportIsSortedOnWait(t *testing.T) {
	prev := SetLazySortEnabled(true)
	defer SetLazySortEnabled(prev)
	ptr := []int{0, 3}
	idx := []int{2, 0, 1}
	val := []int64{20, 0, 10}
	m, err := ImportCSR(1, 3, ptr, idx, val, true)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Jumbled() {
		t.Fatal("jumbled flag lost")
	}
	m.Wait()
	if m.Jumbled() {
		t.Fatal("Wait left the matrix jumbled")
	}
	_, c, v := m.ExtractTuples()
	if !reflect.DeepEqual(c, []int{0, 1, 2}) || !reflect.DeepEqual(v, []int64{0, 10, 20}) {
		t.Fatalf("sorted tuples = %v %v", c, v)
	}
}

func TestLazySortDisabledSortsEagerly(t *testing.T) {
	prev := SetLazySortEnabled(false)
	defer SetLazySortEnabled(prev)
	m, err := ImportCSR(1, 3, []int{0, 3}, []int{2, 0, 1}, []int64{20, 0, 10}, true)
	if err != nil {
		t.Fatal(err)
	}
	if m.Jumbled() {
		t.Fatal("lazy sort disabled, but matrix stayed jumbled")
	}
}

func TestOutOfRangeAccess(t *testing.T) {
	m := MustMatrix[int64](2, 2)
	if err := m.SetElement(1, 2, 0); err == nil {
		t.Fatal("row out of range accepted")
	}
	if err := m.SetElement(1, 0, -1); err == nil {
		t.Fatal("negative col accepted")
	}
	if _, err := m.ExtractElement(0, 5); err == nil || IsNoValue(err) {
		t.Fatal("col out of range must be an index error")
	}
	if err := m.RemoveElement(-1, 0); err == nil {
		t.Fatal("negative row accepted")
	}
}

// mustFromTuples is a test helper building a finished sparse matrix.
func mustFromTuples[T Value](t *testing.T, nr, nc int, rows, cols []int, vals []T) *Matrix[T] {
	t.Helper()
	m, err := MatrixFromTuples(nr, nc, rows, cols, vals, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// ---------------------------------------------------------------------------
// Vector core behaviour

func TestConvertToFullRequiresAllEntries(t *testing.T) {
	m := mustFromTuples(t, 2, 2, []int{0}, []int{0}, []int64{1})
	m.ConvertTo(FormatFull)
	if m.Format() == FormatFull {
		t.Fatal("partial matrix converted to full")
	}
	full := mustFromTuples(t, 2, 2, []int{0, 0, 1, 1}, []int{0, 1, 0, 1}, []int64{1, 2, 3, 4})
	full.ConvertTo(FormatFull)
	if full.Format() != FormatFull {
		t.Fatalf("complete matrix not converted: %v", full.Format())
	}
	got, _ := full.ExtractElement(1, 0)
	if got != 3 {
		t.Fatalf("full A(1,0) = %d", got)
	}
}

func TestVectorPendingTombstonesWait(t *testing.T) {
	v := MustVector[int64](6)
	v.SetElement(1, 3)
	v.SetElement(2, 1)
	if v.Format() != FormatSparse {
		t.Fatalf("format %v", v.Format())
	}
	if v.NVals() != 2 {
		t.Fatalf("nvals = %d", v.NVals())
	}
	v.RemoveElement(3)
	if v.PendingTuples() != 1 {
		t.Fatal("remove did not create a tombstone")
	}
	if v.NVals() != 1 {
		t.Fatalf("nvals = %d", v.NVals())
	}
	x, err := v.ExtractElement(1)
	if err != nil || x != 2 {
		t.Fatalf("v(1) = %v, %v", x, err)
	}
	if _, err := v.ExtractElement(3); !IsNoValue(err) {
		t.Fatal("deleted entry still present")
	}
	// Two pending tuples on one index: the last one wins.
	v.SetElement(4, 5)
	v.SetElement(9, 5)
	if x, err := v.ExtractElement(5); err != nil || x != 9 {
		t.Fatalf("duplicate pending tuple: v(5) = %v, %v; want 9 (last wins)", x, err)
	}
}

func TestVectorFromTuplesAndDense(t *testing.T) {
	v, err := VectorFromTuples(5, []int{4, 1, 4}, []float64{1, 2, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.NVals() != 2 {
		t.Fatalf("nvals = %d", v.NVals())
	}
	x, _ := v.ExtractElement(4)
	if x != 3 {
		t.Fatalf("last-wins dup: %v", x)
	}
	d := DenseVector(4, int64(7))
	if d.Format() != FormatFull || d.NVals() != 4 {
		t.Fatalf("dense: %v %d", d.Format(), d.NVals())
	}
	x2, _ := d.ExtractElement(2)
	if x2 != 7 {
		t.Fatalf("dense value %d", x2)
	}
}

func TestVectorFormatConversions(t *testing.T) {
	v, _ := VectorFromTuples(6, []int{0, 2, 5}, []int64{1, 2, 3}, nil)
	v.ConvertTo(FormatBitmap)
	if v.Format() != FormatBitmap {
		t.Fatal("to bitmap failed")
	}
	idx, vals := v.ExtractTuples()
	if !reflect.DeepEqual(idx, []int{0, 2, 5}) || !reflect.DeepEqual(vals, []int64{1, 2, 3}) {
		t.Fatalf("bitmap tuples %v %v", idx, vals)
	}
	v.ConvertTo(FormatSparse)
	idx, vals = v.ExtractTuples()
	if !reflect.DeepEqual(idx, []int{0, 2, 5}) || !reflect.DeepEqual(vals, []int64{1, 2, 3}) {
		t.Fatalf("sparse tuples %v %v", idx, vals)
	}
}

func TestVectorIterateOrder(t *testing.T) {
	v, _ := VectorFromTuples(10, []int{7, 1, 4}, []int64{70, 10, 40}, nil)
	var got []int
	v.Iterate(func(i int, x int64) { got = append(got, i) })
	if !reflect.DeepEqual(got, []int{1, 4, 7}) {
		t.Fatalf("iterate order %v", got)
	}
}
