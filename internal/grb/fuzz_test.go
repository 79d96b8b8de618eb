package grb

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// fuzzSerialized builds seed corpus entries from real matrices, so the
// fuzzer starts from structurally valid containers and mutates from
// there.
func fuzzSerialized(tuples [][3]int, nr, nc int) []byte {
	var rows, cols []int
	var vals []float64
	for _, t := range tuples {
		rows = append(rows, t[0])
		cols = append(cols, t[1])
		vals = append(vals, float64(t[2]))
	}
	m, err := MatrixFromTuples(nr, nc, rows, cols, vals, nil)
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if err := SerializeMatrix(&buf, m); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzDeserializeMatrix feeds arbitrary bytes to the binary matrix
// deserializer. Malformed input — bad magic, wrong type tag, forged
// header sizes, non-monotone row pointers, out-of-range or unsorted
// column indices, truncation anywhere — must return an error without
// panicking or allocating the forged sizes; valid input must round-trip
// byte-identically.
//
// Run locally with:
//
//	go test ./internal/grb -fuzz FuzzDeserializeMatrix -fuzztime 30s
func FuzzDeserializeMatrix(f *testing.F) {
	f.Add(fuzzSerialized(nil, 0, 0))
	f.Add(fuzzSerialized(nil, 3, 5))
	f.Add(fuzzSerialized([][3]int{{0, 1, 2}, {1, 0, -3}, {2, 2, 9}}, 3, 3))
	f.Add(fuzzSerialized([][3]int{{0, 0, 1}, {0, 1, 2}, {0, 2, 3}, {3, 1, 4}}, 4, 4))
	// A forged header claiming 2^40 entries on a short stream: must fail
	// on the short read, not die allocating.
	forged := fuzzSerialized(nil, 1, 1)
	forged = append([]byte(nil), forged...)
	binary.LittleEndian.PutUint64(forged[9+16:], 1<<40) // nvals field
	f.Add(forged)
	// nrows = MaxInt64: nr+1 overflows, which once panicked in make().
	overflow := append([]byte(nil), fuzzSerialized(nil, 1, 1)...)
	binary.LittleEndian.PutUint64(overflow[9:], 1<<63-1) // nrows field
	f.Add(overflow)
	// Truncations and a flipped magic.
	whole := fuzzSerialized([][3]int{{0, 1, 5}}, 2, 2)
	f.Add(whole[:len(whole)-5])
	f.Add(whole[:11])
	bad := append([]byte(nil), whole...)
	bad[0] ^= 0xff
	f.Add(bad)

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DeserializeMatrix[float64](bytes.NewReader(data))
		if err != nil {
			return // clean rejection
		}
		// Whatever was accepted must be a coherent matrix: exporting and
		// re-importing its CSR must work, and re-serializing must produce
		// a stream that deserializes back to identical bytes.
		nv := m.NVals()
		ptr, idx, _ := m.ExportCSR()
		if len(ptr) != m.NRows()+1 || ptr[m.NRows()] != nv || len(idx) != nv {
			t.Fatalf("accepted incoherent CSR: n=%d nv=%d len(ptr)=%d len(idx)=%d",
				m.NRows(), nv, len(ptr), len(idx))
		}
		for i := 0; i < m.NRows(); i++ {
			if ptr[i] > ptr[i+1] {
				t.Fatalf("accepted non-monotone ptr at row %d", i)
			}
			for p := ptr[i]; p < ptr[i+1]; p++ {
				if idx[p] < 0 || idx[p] >= m.NCols() {
					t.Fatalf("accepted out-of-range index %d at row %d", idx[p], i)
				}
				if p > ptr[i] && idx[p] <= idx[p-1] {
					t.Fatalf("accepted unsorted/duplicate columns at row %d", i)
				}
			}
		}
		var a, b bytes.Buffer
		if err := SerializeMatrix(&a, m); err != nil {
			t.Fatalf("re-serialize failed: %v", err)
		}
		m2, err := DeserializeMatrix[float64](bytes.NewReader(a.Bytes()))
		if err != nil {
			t.Fatalf("round trip deserialize failed: %v", err)
		}
		if err := SerializeMatrix(&b, m2); err != nil {
			t.Fatalf("second serialize failed: %v", err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatal("round trip is not byte-stable")
		}
	})
}
