package store

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"lagraph/internal/stream"
)

// opsFromBytes reads data as an op list: per op a flags byte (bit 0 a
// delete, bit 1 a weight, bit 2 an op kind encodeBatch must refuse), then
// src and dst as 8 bytes each and, with bit 1, the weight's bits. Every
// int and every float64 bit pattern (NaN payloads, -0, ±Inf) is reachable.
func opsFromBytes(data []byte) []stream.Op {
	var ops []stream.Op
	for len(data) >= 17 {
		flags := data[0]
		op := stream.Op{
			Op:  stream.OpUpsert,
			Src: int(int64(binary.LittleEndian.Uint64(data[1:]))),
			Dst: int(int64(binary.LittleEndian.Uint64(data[9:]))),
		}
		data = data[17:]
		switch {
		case flags&4 != 0:
			op.Op = "bogus"
		case flags&1 != 0:
			op.Op = stream.OpDelete
		}
		if flags&2 != 0 && len(data) >= 8 {
			w := math.Float64frombits(binary.LittleEndian.Uint64(data))
			op.Weight = &w
			data = data[8:]
		}
		ops = append(ops, op)
	}
	return ops
}

// FuzzDecodeBatch feeds arbitrary payloads to the WAL record decoder, the
// one recovery runs on bytes read back from disk. It must never panic, and
// a payload it accepts must re-encode to the same bytes. The same input,
// read as an op list, must come back from encodeBatch and decodeBatch bit
// for bit whenever encodeBatch accepts it.
//
// Run locally with:
//
//	go test ./internal/store -fuzz FuzzDecodeBatch -fuzztime 30s
func FuzzDecodeBatch(f *testing.F) {
	for _, ops := range [][]stream.Op{
		nil,
		{{Op: stream.OpUpsert, Src: 0, Dst: 1, Weight: fp(2.5)}, {Op: stream.OpDelete, Src: 3, Dst: 4}},
		{{Op: stream.OpUpsert, Src: -1, Dst: math.MaxInt64, Weight: fp(math.Copysign(0, -1))}},
		{{Op: stream.OpDelete, Src: 7, Dst: 7, Weight: fp(math.NaN())}},
	} {
		payload, err := encodeBatch(42, ops)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
		f.Add(payload[:len(payload)-1])
	}
	f.Add([]byte{})
	f.Add(append(make([]byte, 8), 0xff, 0xff, 0xff, 0xff)) // 2³²−1 ops declared, none present
	f.Fuzz(func(t *testing.T, payload []byte) {
		if rec, err := decodeBatch(payload); err == nil {
			again, err := encodeBatch(rec.Version, rec.Ops)
			if err != nil || !bytes.Equal(again, payload) {
				t.Fatalf("accepted payload re-encodes to %x (%v), want %x", again, err, payload)
			}
		}

		ops := opsFromBytes(payload)
		enc, err := encodeBatch(7, ops)
		if err != nil {
			for _, op := range ops {
				if op.Op == "bogus" {
					return // refused, as it must be
				}
			}
			t.Fatalf("encodeBatch refused valid ops: %v", err)
		}
		rec, err := decodeBatch(enc)
		if err != nil || rec.Version != 7 || len(rec.Ops) != len(ops) {
			t.Fatalf("round trip: version %d, %d ops, %v; want 7, %d ops", rec.Version, len(rec.Ops), err, len(ops))
		}
		for k, op := range ops {
			got := rec.Ops[k]
			if got.Op != op.Op || got.Src != op.Src || got.Dst != op.Dst || (got.Weight == nil) != (op.Weight == nil) ||
				op.Weight != nil && math.Float64bits(*got.Weight) != math.Float64bits(*op.Weight) {
				t.Fatalf("op %d: %+v came back as %+v", k, op, got)
			}
		}
	})
}
