package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"

	"lagraph/internal/grb"
	"lagraph/internal/stream"
)

// Write-ahead-log container. A WAL file is the 8-byte magic followed by
// length-prefixed, CRC-checked records:
//
//	[u32 payload length][u32 CRC-32C of payload][payload]
//
// Each record's payload is one mutation batch exactly as the API accepted
// it (before undirected mirroring), stamped with the registry version its
// publication produced:
//
//	u64 version | u32 nops | nops × (u8 flags | u64 src | u64 dst | [u64 weight])
//
// flags bit 0 marks a delete, bit 1 marks an explicit weight; weights ride
// as grb.EncodeValue bits — the same value encoding the checkpoint files'
// grb.SerializeMatrix uses, so the store speaks one wire dialect.
//
// The tail of a WAL is untrusted by construction: a crash can tear the
// last record. Reads therefore stop at the first record that is short,
// fails its CRC, or decodes to garbage, and report the byte offset of the
// last good record so the caller can truncate the torn tail away.

var walMagic = [8]byte{'L', 'G', 'W', 'A', 'L', '0', '0', '1'}

const (
	walFlagDelete = 1 << 0
	walFlagWeight = 1 << 1

	// maxWALPayload bounds one record's declared length: a corrupt length
	// prefix must not trigger a giant allocation. The server-side batch
	// bound (65536 ops × 25 bytes) sits far below it.
	maxWALPayload = 64 << 20
)

// walRecord is one decoded WAL record: the ops exactly as the API accepted
// them, stamped with the registry version their publication produced.
type walRecord struct {
	Version uint64
	Ops     []stream.Op
}

// encodeBatch builds a record payload.
func encodeBatch(version uint64, ops []stream.Op) ([]byte, error) {
	buf := make([]byte, 0, 12+25*len(ops))
	buf = binary.LittleEndian.AppendUint64(buf, version)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ops)))
	for _, op := range ops {
		var flags byte
		switch op.Op {
		case stream.OpUpsert:
		case stream.OpDelete:
			flags |= walFlagDelete
		default:
			return nil, fmt.Errorf("store: unknown op kind %q", op.Op)
		}
		if op.Weight != nil {
			flags |= walFlagWeight
		}
		buf = append(buf, flags)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(op.Src)))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(op.Dst)))
		if op.Weight != nil {
			buf = binary.LittleEndian.AppendUint64(buf, grb.EncodeValue(*op.Weight))
		}
	}
	return buf, nil
}

// decodeBatch parses a record payload.
func decodeBatch(payload []byte) (walRecord, error) {
	var rec walRecord
	if len(payload) < 12 {
		return rec, errors.New("store: record payload too short")
	}
	rec.Version = binary.LittleEndian.Uint64(payload)
	nops := int(binary.LittleEndian.Uint32(payload[8:]))
	p := payload[12:]
	rec.Ops = make([]stream.Op, 0, min(nops, 4096))
	for k := 0; k < nops; k++ {
		if len(p) < 17 {
			return rec, fmt.Errorf("store: record truncated at op %d", k)
		}
		flags := p[0]
		if flags&^(walFlagDelete|walFlagWeight) != 0 {
			return rec, fmt.Errorf("store: op %d has unknown flags %#x", k, flags)
		}
		op := stream.Op{
			Op:  stream.OpUpsert,
			Src: int(int64(binary.LittleEndian.Uint64(p[1:]))),
			Dst: int(int64(binary.LittleEndian.Uint64(p[9:]))),
		}
		if flags&walFlagDelete != 0 {
			op.Op = stream.OpDelete
		}
		p = p[17:]
		if flags&walFlagWeight != 0 {
			if len(p) < 8 {
				return rec, fmt.Errorf("store: op %d weight truncated", k)
			}
			w := grb.DecodeValue[float64](binary.LittleEndian.Uint64(p))
			op.Weight = &w
			p = p[8:]
		}
		rec.Ops = append(rec.Ops, op)
	}
	if len(p) != 0 {
		return rec, errors.New("store: trailing bytes in record payload")
	}
	return rec, nil
}

// appendRecord frames and appends one record to an open WAL file,
// returning the number of bytes written.
func appendRecord(f *os.File, payload []byte, fsync bool) (int64, error) {
	frame := make([]byte, 0, 8+len(payload))
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, crcTable))
	frame = append(frame, payload...)
	if _, err := f.Write(frame); err != nil {
		return 0, err
	}
	if fsync {
		if err := f.Sync(); err != nil {
			return 0, err
		}
	}
	return int64(len(frame)), nil
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// readWAL parses a WAL file. It returns the decoded records, the byte
// offset just past the last good record (the repair-truncation point),
// and whether a torn or corrupt tail was dropped. Only an unreadable
// magic is a hard error — a missing file reads as empty.
func readWAL(path string) (recs []walRecord, goodLen int64, torn bool, err error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, false, nil
	}
	if err != nil {
		return nil, 0, false, err
	}
	if len(b) < len(walMagic) || [8]byte(b[:8]) != walMagic {
		if len(b) == 0 {
			return nil, 0, false, nil
		}
		return nil, 0, false, fmt.Errorf("store: %s: bad WAL magic", path)
	}
	off := int64(len(walMagic))
	rest := b[off:]
	for len(rest) > 0 {
		if len(rest) < 8 {
			return recs, off, true, nil
		}
		plen := int(binary.LittleEndian.Uint32(rest))
		crc := binary.LittleEndian.Uint32(rest[4:])
		if plen > maxWALPayload || len(rest) < 8+plen {
			return recs, off, true, nil
		}
		payload := rest[8 : 8+plen]
		if crc32.Checksum(payload, crcTable) != crc {
			return recs, off, true, nil
		}
		rec, err := decodeBatch(payload)
		if err != nil {
			return recs, off, true, nil
		}
		recs = append(recs, rec)
		off += int64(8 + plen)
		rest = rest[8+plen:]
	}
	return recs, off, false, nil
}

// noVersion is recordsBetween's open upper bound.
const noVersion = ^uint64(0)

// recordsBetween keeps, in place and in log order, the records published
// after version `after` and before version `before`.
func recordsBetween(recs []walRecord, after, before uint64) []walRecord {
	keep := recs[:0]
	for _, r := range recs {
		if after < r.Version && r.Version < before {
			keep = append(keep, r)
		}
	}
	return keep
}

// writeWAL writes a fresh WAL file at path atomically (temp + rename),
// containing the given records.
func writeWAL(path string, recs []walRecord, fsync bool) (int64, error) {
	size := int64(len(walMagic))
	err := installFile(path, fsync, func(f *os.File) error {
		if _, err := f.Write(walMagic[:]); err != nil {
			return err
		}
		for _, rec := range recs {
			payload, err := encodeBatch(rec.Version, rec.Ops)
			if err != nil {
				return err
			}
			n, err := appendRecord(f, payload, false)
			if err != nil {
				return err
			}
			size += n
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return size, nil
}

// openWALForAppend opens (creating if needed) a WAL for appending,
// writing the magic on creation.
func openWALForAppend(path string) (*os.File, int64, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	size := st.Size()
	if size == 0 {
		if _, err := f.Write(walMagic[:]); err != nil {
			f.Close()
			return nil, 0, err
		}
		size = int64(len(walMagic))
	}
	return f, size, nil
}
