package grb

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestSerializeRoundTripFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	m := randMatrix(rng, 12, 9, 0.3)
	var buf bytes.Buffer
	if err := SerializeMatrix(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := DeserializeMatrix[float64](&buf)
	if err != nil {
		t.Fatal(err)
	}
	matricesEqual(t, back, denseOf(m), "float64 round trip")
}

func TestSerializeRoundTripTypes(t *testing.T) {
	// bool
	mb := mustFromTuples(t, 3, 3, []int{0, 2}, []int{1, 2}, []bool{true, true})
	var buf bytes.Buffer
	if err := SerializeMatrix(&buf, mb); err != nil {
		t.Fatal(err)
	}
	backB, err := DeserializeMatrix[bool](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if backB.NVals() != 2 {
		t.Fatal("bool round trip lost entries")
	}
	// int64 with negative values
	mi := mustFromTuples(t, 2, 2, []int{0, 1}, []int{0, 1}, []int64{-5, 1 << 40})
	buf.Reset()
	if err := SerializeMatrix(&buf, mi); err != nil {
		t.Fatal(err)
	}
	backI, err := DeserializeMatrix[int64](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if x, _ := backI.ExtractElement(0, 0); x != -5 {
		t.Fatalf("negative int64: %d", x)
	}
	if x, _ := backI.ExtractElement(1, 1); x != 1<<40 {
		t.Fatalf("large int64: %d", x)
	}
	// float32
	mf := mustFromTuples(t, 2, 2, []int{0}, []int{1}, []float32{1.25})
	buf.Reset()
	if err := SerializeMatrix(&buf, mf); err != nil {
		t.Fatal(err)
	}
	backF, err := DeserializeMatrix[float32](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if x, _ := backF.ExtractElement(0, 1); x != 1.25 {
		t.Fatalf("float32: %v", x)
	}
}

func TestDeserializeTypeMismatchRejected(t *testing.T) {
	m := mustFromTuples(t, 2, 2, []int{0}, []int{1}, []int64{7})
	var buf bytes.Buffer
	if err := SerializeMatrix(&buf, m); err != nil {
		t.Fatal(err)
	}
	if _, err := DeserializeMatrix[float64](&buf); err == nil {
		t.Fatal("type mismatch accepted")
	}
}

func TestDeserializeCorruptionRejected(t *testing.T) {
	m := mustFromTuples(t, 3, 3, []int{0, 1}, []int{1, 2}, []float64{1, 2})
	var buf bytes.Buffer
	if err := SerializeMatrix(&buf, m); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := DeserializeMatrix[float64](bytes.NewReader(data[:10])); err == nil {
		t.Fatal("truncated stream accepted")
	}
	bad := append([]byte("BADMAGIC"), data[8:]...)
	if _, err := DeserializeMatrix[float64](bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestSerializeFinishesPendingWork(t *testing.T) {
	m := MustMatrix[float64](3, 3)
	m.SetElement(4, 0, 1) // pending tuple
	var buf bytes.Buffer
	if err := SerializeMatrix(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := DeserializeMatrix[float64](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if x, _ := back.ExtractElement(0, 1); x != 4 {
		t.Fatal("pending tuple lost through serialization")
	}
}
