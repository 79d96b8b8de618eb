package algo

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strconv"
	"sync"

	"lagraph/internal/parallel"
)

// AppendResponse appends the wire document of one algorithm response to
// dst: the kernel's named outputs beside the envelope's graph, algorithm
// and seconds (and report, when one is passed), keys sorted, indented by
// two spaces, newline-terminated — byte for byte what
//
//	enc := json.NewEncoder(w); enc.SetIndent("", "  "); enc.Encode(m)
//
// writes for the same entries held in a map[string]any. Result vectors
// and the scalar kinds kernels return are appended directly; any other
// value goes through json.Marshal and json.Indent, so the bytes are the
// standard encoder's by construction wherever this one has no rule of its
// own. The envelope's keys win over a result entry of the same name
// (CheckReserved keeps kernels off them). A NaN or infinite float is the
// standard encoder's *json.UnsupportedValueError.
//
// A float that holds an integer below 2⁵³ in magnitude, −0 excepted (BFS
// levels and parents, CC labels, hop-count distances), is printed as that
// integer, which is what encoding/json writes too. A vector of at least
// 2·encodeGrain (16 384) entries is cut into blocks rendered on parallel
// workers and joined in order; a shorter one is rendered on the caller's
// goroutine and, into a buffer already large enough, allocates nothing.
func AppendResponse(dst []byte, graph, algorithm string, seconds float64, res Result, report *RunReport) ([]byte, error) {
	var arr [16]string // on the stack for every catalog kernel
	keys := append(arr[:0], "algorithm", "graph", "seconds")
	if report != nil {
		keys = append(keys, "report")
	}
	for k := range res {
		if !slices.Contains(reservedResultKeys, k) {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)

	// One growth up front, not a doubling ladder under a 2 MB body: an
	// entry renders in at most 80 bytes or so.
	size := 256
	for _, v := range res {
		if s, ok := v.(*VecSummary); ok && s != nil {
			size += 80 * len(s.Entries)
		}
	}
	dst = slices.Grow(dst, size)

	dst = append(dst, '{')
	for n, k := range keys {
		if n > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, "\n  "...)
		dst = appendString(dst, k)
		dst = append(dst, ": "...)
		var err error
		switch k {
		case "algorithm":
			dst = appendString(dst, algorithm)
		case "graph":
			dst = appendString(dst, graph)
		case "seconds":
			dst, err = appendFloat(dst, seconds)
		case "report":
			dst, err = appendIndented(dst, report)
		default:
			dst, err = appendValue(dst, res[k])
		}
		if err != nil {
			return dst, err
		}
	}
	return append(dst, "\n}\n"...), nil
}

// appendValue appends one top-level entry's value, nested lines indented
// one level.
func appendValue(dst []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case *VecSummary:
		return appendVec(dst, x)
	case float64:
		return appendFloat(dst, x)
	case int:
		return strconv.AppendInt(dst, int64(x), 10), nil
	case int64:
		return strconv.AppendInt(dst, x, 10), nil
	case bool:
		return strconv.AppendBool(dst, x), nil
	case string:
		return appendString(dst, x), nil
	}
	return appendIndented(dst, v)
}

// appendIndented is the fallback for every value without a rule above.
func appendIndented(dst []byte, v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return dst, err
	}
	buf := bytes.NewBuffer(dst)
	if err := json.Indent(buf, b, "  ", "  "); err != nil {
		return dst, err
	}
	return buf.Bytes(), nil
}

func appendVec(dst []byte, s *VecSummary) ([]byte, error) {
	if s == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, "{\n    \"nvals\": "...)
	dst = strconv.AppendInt(dst, int64(s.NVals), 10)
	dst = append(dst, ",\n    \"entries\": "...)
	switch n := len(s.Entries); {
	case s.Entries == nil:
		dst = append(dst, "null"...)
	case n == 0:
		dst = append(dst, "[]"...)
	default:
		dst = append(dst, '[')
		var err error
		if n < 2*encodeGrain {
			dst, err = appendEntries(dst, s.Entries, 0, n)
		} else {
			dst, err = appendEntriesParallel(dst, s.Entries)
		}
		if err != nil {
			return dst, err
		}
		dst = append(dst, "\n    ]"...)
	}
	dst = append(dst, ",\n    \"truncated\": "...)
	dst = strconv.AppendBool(dst, s.Truncated)
	return append(dst, "\n  }"...), nil
}

// appendEntries appends entries[lo:hi], each preceded by the comma that
// separates it from entry lo-1 when lo > 0.
func appendEntries(dst []byte, entries []VecEntry, lo, hi int) ([]byte, error) {
	for n := lo; n < hi; n++ {
		if n > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, "\n      {\n        \"i\": "...)
		dst = strconv.AppendInt(dst, int64(entries[n].I), 10)
		dst = append(dst, ",\n        \"v\": "...)
		var err error
		if dst, err = appendFloat(dst, entries[n].V); err != nil {
			return dst, err
		}
		dst = append(dst, "\n      }"...)
	}
	return dst, nil
}

// encodeGrain sets where a vector's entries are rendered on more than one
// worker: from 2·encodeGrain entries on. An entry costs 25 ns (an integer)
// to 200 ns (a fraction's shortest digits) to print, so a block of 8 192
// takes 0.2–1.6 ms, far above the few µs of starting a worker and copying
// its bytes behind the previous block. Smaller vectors stay on the serial
// path, which allocates nothing.
const encodeGrain = 8192

// entryBufs holds the block buffers of appendEntriesParallel between
// responses; each is emptied before it goes back.
var entryBufs = sync.Pool{New: func() any { return new([]byte) }}

type entryBlock struct {
	buf *[]byte // nil for block 0, which appended straight into dst
	out []byte
	err error
}

// appendEntriesParallel is appendEntries(dst, entries, 0, len(entries))
// cut into parallel.Blocks: block 0 appends into dst, the others into
// pooled buffers copied behind it in block order. Output and error are the
// serial path's: the first failing entry's error, after the bytes of
// every entry before it.
func appendEntriesParallel(dst []byte, entries []VecEntry) ([]byte, error) {
	blocks := parallel.Blocks(len(entries), nil, func(lo, hi int) entryBlock {
		if lo == 0 {
			out, err := appendEntries(dst, entries, lo, hi)
			return entryBlock{out: out, err: err}
		}
		buf := entryBufs.Get().(*[]byte)
		out, err := appendEntries(slices.Grow((*buf)[:0], 80*(hi-lo)), entries, lo, hi)
		return entryBlock{buf: buf, out: out, err: err}
	})
	var err error
	for _, b := range blocks {
		if b.buf == nil {
			dst = b.out
		} else {
			if err == nil {
				dst = append(dst, b.out...)
			}
			*b.buf = b.out[:0]
			entryBufs.Put(b.buf)
		}
		if err == nil {
			err = b.err
		}
	}
	return dst, err
}

// appendFloat follows encoding/json's float64 rules: shortest digits, 'f'
// form unless the magnitude is below 1e-6 or at least 1e21, and a
// two-digit negative exponent trimmed of its leading zero (e-09 → e-9).
// An integer below 2⁵³ in magnitude (other than −0, which prints "-0") is
// its own shortest 'f' form — every integer there is a float64, so no
// shorter digit string rounds to it — and prints as one, without the
// shortest-digit search.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if f == math.Trunc(f) && math.Abs(f) < 1<<53 && (f != 0 || !math.Signbit(f)) {
		return strconv.AppendInt(dst, int64(f), 10), nil
	}
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

// appendString quotes s. Plain ASCII with nothing encoding/json escapes
// (quote, backslash, controls, and the HTML set < > &) is copied; any
// other string is left to json.Marshal, which cannot fail on a string.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s)
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
