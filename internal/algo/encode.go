package algo

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strconv"
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
	switch {
	case s.Entries == nil:
		dst = append(dst, "null"...)
	case len(s.Entries) == 0:
		dst = append(dst, "[]"...)
	default:
		dst = append(dst, '[')
		for n, e := range s.Entries {
			if n > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, "\n      {\n        \"i\": "...)
			dst = strconv.AppendInt(dst, int64(e.I), 10)
			dst = append(dst, ",\n        \"v\": "...)
			var err error
			if dst, err = appendFloat(dst, e.V); err != nil {
				return dst, err
			}
			dst = append(dst, "\n      }"...)
		}
		dst = append(dst, "\n    ]"...)
	}
	dst = append(dst, ",\n    \"truncated\": "...)
	dst = strconv.AppendBool(dst, s.Truncated)
	return append(dst, "\n  }"...), nil
}

// appendFloat follows encoding/json's float64 rules: shortest digits, 'f'
// form unless the magnitude is below 1e-6 or at least 1e21, and a
// two-digit negative exponent trimmed of its leading zero (e-09 → e-9).
func appendFloat(dst []byte, f float64) ([]byte, error) {
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
