package lagraph

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"
)

func TestMMWriteReadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	A := randDigraph(rng, 12, 0.3)
	var buf bytes.Buffer
	if err := MMWrite(&buf, A); err != nil {
		t.Fatal(err)
	}
	B, err := MMRead(&buf)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := IsEqual(A, B)
	if err != nil || !eq {
		t.Fatalf("round trip changed the matrix: %v", err)
	}
}

func TestMMReadSymmetricAndPattern(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate pattern symmetric
% a triangle
3 3 3
1 2
2 3
3 1
`
	m, err := MMRead(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.NVals() != 6 {
		t.Fatalf("symmetric expansion: %d entries, want 6", m.NVals())
	}
	if x, err := m.ExtractElement(1, 0); err != nil || x != 1 {
		t.Fatalf("pattern value: %v %v", x, err)
	}
}

func TestMMReadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"not a matrix market file\n1 1 1\n",
		"%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n5 5 3.0\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n",
		"%%MatrixMarket matrix coordinate real general\nx y z\n",
	}
	for i, c := range cases {
		if _, err := MMRead(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d: garbage accepted", i)
		}
	}
}

func TestBinWriteReadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	A := randUndirected(rng, 20, 0.2, 9)
	var buf bytes.Buffer
	if err := BinWrite(&buf, A); err != nil {
		t.Fatal(err)
	}
	B, err := BinRead(&buf)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := IsEqual(A, B)
	if err != nil || !eq {
		t.Fatalf("binary round trip changed the matrix: %v", err)
	}
}

func TestBinReadRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	A := randDigraph(rng, 8, 0.3)
	var buf bytes.Buffer
	if err := BinWrite(&buf, A); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Bad magic.
	bad := append([]byte("XXXXXXXX"), data[8:]...)
	if _, err := BinRead(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Truncated stream.
	if _, err := BinRead(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Fatal("truncated stream accepted")
	}
}

// TestBinReadRejectsMalformedStructure covers the hardened validation:
// forged sizes must fail on the short read (not by allocating the claim),
// and structurally invalid CSR bodies must be errors, never panics in a
// later kernel.
func TestBinReadRejectsMalformedStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	A := randDigraph(rng, 4, 0.5)
	var buf bytes.Buffer
	if err := BinWrite(&buf, A); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Header layout (33 bytes): 8 magic, 1 type tag, then
	// nrows/ncols/nvals as uint64.
	const nvalsOff = 8 + 1 + 2*8

	// Forge a gigantic entry count over the short body: BinRead must hit
	// the truncation, not allocate 2^40 entries.
	forged := append([]byte(nil), data...)
	binary.LittleEndian.PutUint64(forged[nvalsOff:], 1<<40)
	if _, err := BinRead(bytes.NewReader(forged)); err == nil {
		t.Fatal("forged nvals accepted")
	}

	nnz := int(binary.LittleEndian.Uint64(data[nvalsOff:]))
	if nnz < 2 {
		t.Fatalf("test graph too sparse (nnz=%d)", nnz)
	}
	ptrOff := nvalsOff + 8

	// Non-monotone row pointers.
	broken := append([]byte(nil), data...)
	binary.LittleEndian.PutUint64(broken[ptrOff+8:], uint64(1<<40))
	if _, err := BinRead(bytes.NewReader(broken)); err == nil {
		t.Fatal("non-monotone ptr accepted")
	}

	// Out-of-range column index.
	idxOff := ptrOff + (A.NRows()+1)*8
	broken = append([]byte(nil), data...)
	binary.LittleEndian.PutUint64(broken[idxOff:], uint64(1<<40))
	if _, err := BinRead(bytes.NewReader(broken)); err == nil {
		t.Fatal("out-of-range index accepted")
	}

	// Duplicate/unsorted columns within a row: copy the first row's first
	// index over its second (rows are sorted strictly increasing, so this
	// forges a duplicate) — only when row 0 has at least two entries.
	ptr0 := int(binary.LittleEndian.Uint64(data[ptrOff:]))
	ptr1 := int(binary.LittleEndian.Uint64(data[ptrOff+8:]))
	if ptr1-ptr0 >= 2 {
		broken = append([]byte(nil), data...)
		first := binary.LittleEndian.Uint64(data[idxOff:])
		binary.LittleEndian.PutUint64(broken[idxOff+8:], first)
		if _, err := BinRead(bytes.NewReader(broken)); err == nil {
			t.Fatal("duplicate column accepted")
		}
	}

	// The untouched stream still parses.
	if _, err := BinRead(bytes.NewReader(data)); err != nil {
		t.Fatalf("pristine stream rejected: %v", err)
	}
}

// TestBinReadRejectsOverflowingHeader: nrows = MaxInt64 makes nr+1 wrap
// negative; the capacity clamp must turn that into a clean error, not a
// makeslice panic.
func TestBinReadRejectsOverflowingHeader(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	A := randDigraph(rng, 4, 0.5)
	var buf bytes.Buffer
	if err := BinWrite(&buf, A); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	const nrowsOff = 8 + 1 // magic, type tag
	forged := append([]byte(nil), data...)
	binary.LittleEndian.PutUint64(forged[nrowsOff:], 1<<63-1)
	if _, err := BinRead(bytes.NewReader(forged)); err == nil {
		t.Fatal("MaxInt64 nrows accepted")
	}
}
