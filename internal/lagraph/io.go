package lagraph

import (
	"io"

	"lagraph/internal/grb"
	"lagraph/internal/mmio"
)

// Graph I/O utilities (paper §V): Matrix Market text form and a fast
// binary form for GrB matrices.

// MMRead reads a GrB matrix from a Matrix Market stream. Symmetric inputs
// are expanded; duplicates are summed.
func MMRead(r io.Reader) (*grb.Matrix[float64], error) {
	coo, err := mmio.Read(r)
	if err != nil {
		return nil, wrap(StatusIO, err, "MMRead")
	}
	m, err := grb.MatrixFromTuples(coo.NRows, coo.NCols, coo.Rows, coo.Cols, coo.Vals,
		func(a, b float64) float64 { return a + b })
	if err != nil {
		return nil, wrap(StatusIO, err, "MMRead build")
	}
	return m, nil
}

// MMWrite writes a GrB matrix in Matrix Market coordinate/real/general
// form.
func MMWrite(w io.Writer, m *grb.Matrix[float64]) error {
	rows, cols, vals := m.ExtractTuples()
	if err := mmio.Write(w, m.NRows(), m.NCols(), rows, cols, vals, false); err != nil {
		return wrap(StatusIO, err, "MMWrite")
	}
	return nil
}

// BinWrite serialises a finished matrix in the binary container (paper
// §V). As in LAGraph itself that is the GraphBLAS's own serialization, so
// an upload body, a graphgen or mmconvert file and a store checkpoint are
// the same bytes.
func BinWrite(w io.Writer, m *grb.Matrix[float64]) error {
	return wrap(StatusIO, grb.SerializeMatrix(w, m), "BinWrite")
}

// BinRead deserialises a matrix written by BinWrite. The bytes are
// untrusted (HTTP uploads land here); grb.DeserializeMatrix is the
// hardened, fuzzed decoder, so a malformed file is an error, never a
// panic in a later kernel.
func BinRead(r io.Reader) (*grb.Matrix[float64], error) {
	m, err := grb.DeserializeMatrix[float64](r)
	if err != nil {
		return nil, wrap(StatusIO, err, "BinRead")
	}
	return m, nil
}
