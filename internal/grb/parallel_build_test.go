package grb

import (
	"slices"
	"sort"
	"testing"

	"lagraph/internal/gen"
	"lagraph/internal/parallel"
)

// TestParallelBuildsMatchSerial runs the row builders of triangle counting
// on a degree-sorted Kron graph with 8192 rows — enough for Threads(n) > 1,
// so each build is cut into weighted blocks: the permuting ExtractSubmatrix
// (weighed by the gathered rows' lengths) and the lazy sort of its jumbled
// result (by its row pointer), Select(Tril) and Select(Triu) (by A's row
// pointer), and the masked dot C⟨s(L)⟩ = L plus.pair Uᵀ (by the mask's).
// One worker and four must build identical ptr, idx and val.
func TestParallelBuildsMatchSerial(t *testing.T) {
	e := gen.Kron(13, 8, 1)
	ptr, idx, vals := e.CSR()
	A, err := ImportCSR(e.N, e.N, ptr, idx, vals, false)
	if err != nil {
		t.Fatal(err)
	}
	n := e.N
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool {
		return ptr[perm[a]+1]-ptr[perm[a]] < ptr[perm[b]+1]-ptr[perm[b]]
	})
	type built struct {
		P, L, U *Matrix[float64]
		C       *Matrix[int64]
	}
	build := func(threads int) built {
		prev := parallel.SetMaxThreads(threads)
		defer parallel.SetMaxThreads(prev)
		if got := parallel.Threads(n); got != threads {
			t.Fatalf("Threads(%d) = %d under SetMaxThreads(%d)", n, got, threads)
		}
		b := built{MustMatrix[float64](n, n), MustMatrix[float64](n, n), MustMatrix[float64](n, n), MustMatrix[int64](n, n)}
		for _, err := range []error{
			ExtractSubmatrix(b.P, NoMask, nil, A, perm, perm, nil),
			Select(b.L, NoMask, nil, Tril[float64](), b.P, 0, nil),
			Select(b.U, NoMask, nil, Triu[float64](), b.P, 0, nil),
			MxM(b.C, StructMaskOf(b.L), nil, PlusPair[float64, float64, int64](), b.L, b.U, DescT1),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
		return b
	}
	one, four := build(1), build(4)
	if one.C.NVals() == 0 {
		t.Fatal("the masked dot found no triangles")
	}
	same := func(name string, p1, i1, p4, i4 []int, valsEqual bool) {
		t.Helper()
		if !slices.Equal(p1, p4) || !slices.Equal(i1, i4) || !valsEqual {
			t.Errorf("%s: one worker and four built different CSR arrays", name)
		}
	}
	for _, m := range []struct {
		name   string
		m1, m4 *Matrix[float64]
	}{{"ExtractSubmatrix", one.P, four.P}, {"Select(Tril)", one.L, four.L}, {"Select(Triu)", one.U, four.U}} {
		m.m1.Wait()
		m.m4.Wait()
		same(m.name, m.m1.ptr, m.m1.idx, m.m4.ptr, m.m4.idx, slices.Equal(m.m1.val, m.m4.val))
	}
	one.C.Wait()
	four.C.Wait()
	same("masked dot", one.C.ptr, one.C.idx, four.C.ptr, four.C.idx, slices.Equal(one.C.val, four.C.val))
}
