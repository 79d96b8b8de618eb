package grb

import (
	"bufio"
	"encoding/binary"
	"io"
	"math"
)

// Generic matrix serialization (GxB_Matrix_serialize analogue): a typed
// binary container for any Value element type. The on-wire layout is
// magic, type tag, dims, nvals, CSR arrays; values are written in the
// smallest natural width for the type.

var grbMagic = [8]byte{'G', 'R', 'B', 'M', 'A', 'T', '0', '1'}

// typeTag identifies the element type on the wire.
func typeTag[T Value]() byte {
	var z T
	switch any(z).(type) {
	case bool:
		return 1
	case int8:
		return 2
	case int16:
		return 3
	case int32:
		return 4
	case int64:
		return 5
	case uint8:
		return 6
	case uint16:
		return 7
	case uint32:
		return 8
	case uint64:
		return 9
	case float32:
		return 10
	case float64:
		return 11
	default:
		return 0
	}
}

// EncodeValue converts a value to its uint64 wire representation — the
// same encoding SerializeMatrix uses for stored entries. It is exported
// so record-oriented containers built on this serialization (the durable
// store's write-ahead-log payloads) share one wire format for values.
func EncodeValue[T Value](x T) uint64 {
	switch v := any(x).(type) {
	case bool:
		if v {
			return 1
		}
		return 0
	case int8:
		return uint64(uint8(v))
	case int16:
		return uint64(uint16(v))
	case int32:
		return uint64(uint32(v))
	case int64:
		return uint64(v)
	case uint8:
		return uint64(v)
	case uint16:
		return uint64(v)
	case uint32:
		return uint64(v)
	case uint64:
		return v
	case float32:
		return uint64(math.Float32bits(v))
	case float64:
		return math.Float64bits(v)
	}
	return 0
}

// DecodeValue is the inverse of EncodeValue.
func DecodeValue[T Value](bits uint64) T {
	var z T
	switch any(z).(type) {
	case bool:
		return any(bits != 0).(T)
	case int8:
		return any(int8(uint8(bits))).(T)
	case int16:
		return any(int16(uint16(bits))).(T)
	case int32:
		return any(int32(uint32(bits))).(T)
	case int64:
		return any(int64(bits)).(T)
	case uint8:
		return any(uint8(bits)).(T)
	case uint16:
		return any(uint16(bits)).(T)
	case uint32:
		return any(uint32(bits)).(T)
	case uint64:
		return any(bits).(T)
	case float32:
		return any(math.Float32frombits(uint32(bits))).(T)
	case float64:
		return any(math.Float64frombits(bits)).(T)
	}
	return z
}

// SerializeMatrix writes the finished matrix to w.
func SerializeMatrix[T Value](w io.Writer, m *Matrix[T]) error {
	tag := typeTag[T]()
	if tag == 0 {
		return errf(NotImplemented, "SerializeMatrix: unsupported element type")
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(grbMagic[:]); err != nil {
		return errf(Panic, "SerializeMatrix: %v", err)
	}
	if err := bw.WriteByte(tag); err != nil {
		return errf(Panic, "SerializeMatrix: %v", err)
	}
	ptr, idx, val := m.ExportCSR()
	var buf [8]byte
	writeU64 := func(x uint64) error {
		binary.LittleEndian.PutUint64(buf[:], x)
		_, err := bw.Write(buf[:])
		return err
	}
	for _, h := range []uint64{uint64(m.NRows()), uint64(m.NCols()), uint64(len(idx))} {
		if err := writeU64(h); err != nil {
			return errf(Panic, "SerializeMatrix header: %v", err)
		}
	}
	for _, p := range ptr {
		if err := writeU64(uint64(p)); err != nil {
			return errf(Panic, "SerializeMatrix ptr: %v", err)
		}
	}
	for _, j := range idx {
		if err := writeU64(uint64(j)); err != nil {
			return errf(Panic, "SerializeMatrix idx: %v", err)
		}
	}
	for _, x := range val {
		if err := writeU64(EncodeValue(x)); err != nil {
			return errf(Panic, "SerializeMatrix val: %v", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return errf(Panic, "SerializeMatrix flush: %v", err)
	}
	return nil
}

// DeserializeMatrix reads a matrix written by SerializeMatrix. The stored
// element type must match T exactly.
func DeserializeMatrix[T Value](r io.Reader) (*Matrix[T], error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, errf(InvalidObject, "DeserializeMatrix: %v", err)
	}
	if magic != grbMagic {
		return nil, errf(InvalidObject, "DeserializeMatrix: bad magic")
	}
	tag, err := br.ReadByte()
	if err != nil {
		return nil, errf(InvalidObject, "DeserializeMatrix: %v", err)
	}
	if tag != typeTag[T]() {
		return nil, errf(DomainMismatch,
			"DeserializeMatrix: stored type tag %d does not match requested type", tag)
	}
	var buf [8]byte
	readU64 := func() (uint64, error) {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(buf[:]), nil
	}
	var hdr [3]uint64
	for i := range hdr {
		if hdr[i], err = readU64(); err != nil {
			return nil, errf(InvalidObject, "DeserializeMatrix header: %v", err)
		}
	}
	nr, nc, nnz := int(hdr[0]), int(hdr[1]), int(hdr[2])
	if nr < 0 || nc < 0 || nnz < 0 {
		return nil, errf(InvalidObject, "DeserializeMatrix: negative dimensions")
	}
	// Never pre-allocate the header-declared sizes: a corrupt or hostile
	// header can claim 2^60 entries the stream does not carry, and the
	// allocation itself would abort the process before the short read is
	// noticed. Grow with the data actually read instead.
	ptr := make([]int, 0, untrustedCap(nr+1))
	for i := 0; i <= nr; i++ {
		x, err := readU64()
		if err != nil {
			return nil, errf(InvalidObject, "DeserializeMatrix ptr: %v", err)
		}
		ptr = append(ptr, int(x))
	}
	if ptr[nr] != nnz {
		// Early exit before reading nnz indices and values the row
		// pointers cannot account for; the full invariants are enforced by
		// importCSRChecked below.
		return nil, errf(InvalidObject, "DeserializeMatrix: ptr/nvals mismatch")
	}
	idx := make([]int, 0, untrustedCap(nnz))
	for i := 0; i < nnz; i++ {
		x, err := readU64()
		if err != nil {
			return nil, errf(InvalidObject, "DeserializeMatrix idx: %v", err)
		}
		idx = append(idx, int(x))
	}
	val := make([]T, 0, untrustedCap(nnz))
	for i := 0; i < nnz; i++ {
		bits, err := readU64()
		if err != nil {
			return nil, errf(InvalidObject, "DeserializeMatrix val: %v", err)
		}
		val = append(val, DecodeValue[T](bits))
	}
	return importCSRChecked(nr, nc, ptr, idx, val)
}

// allocChunk bounds the up-front capacity of deserialization allocations;
// larger arrays grow only as their data actually arrives, so truncated or
// forged headers fail on the short read instead of on the allocation.
const allocChunk = 1 << 16

// untrustedCap clamps an untrusted size to [0, allocChunk] for use as a
// slice capacity, so deserializers grow arrays with the data actually
// read instead of a header's claim. The clamp also absorbs integer
// overflow: a header claiming MaxInt64 rows makes nr+1 wrap negative,
// and passing that to make() would panic.
func untrustedCap(n int) int {
	if n < 0 || n > allocChunk {
		return allocChunk
	}
	return n
}

// importCSRChecked is ImportCSR for untrusted input (deserializers, file
// uploads): it enforces the full CSR invariants — ptr[0] == 0, monotone
// non-negative row pointers ending at len(idx), and in-range, strictly
// increasing column indices within each row (which also excludes
// duplicates) — and rejects any violation with InvalidObject instead of
// importing garbage that a later kernel would trip over.
func importCSRChecked[T Value](nr, nc int, ptr, idx []int, val []T) (*Matrix[T], error) {
	if nr < 0 || nc < 0 || len(ptr) != nr+1 || len(val) != len(idx) {
		return nil, errf(InvalidObject, "DeserializeMatrix: inconsistent arrays")
	}
	if ptr[0] != 0 || ptr[nr] != len(idx) {
		return nil, errf(InvalidObject, "DeserializeMatrix: ptr does not span [0,%d]", len(idx))
	}
	for i := 0; i < nr; i++ {
		lo, hi := ptr[i], ptr[i+1]
		if lo > hi || lo < 0 || hi > len(idx) {
			return nil, errf(InvalidObject, "DeserializeMatrix: row pointers not monotone at row %d", i)
		}
		for p := lo; p < hi; p++ {
			if idx[p] < 0 || idx[p] >= nc {
				return nil, errf(InvalidObject, "DeserializeMatrix: row %d index %d outside [0,%d)", i, idx[p], nc)
			}
			if p > lo && idx[p] <= idx[p-1] {
				return nil, errf(InvalidObject, "DeserializeMatrix: row %d columns not strictly increasing", i)
			}
		}
	}
	return ImportCSR(nr, nc, ptr, idx, val, false)
}
