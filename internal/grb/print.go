package grb

import (
	"fmt"
	"strings"
)

// String renders a compact summary plus up to a few entries, in the spirit
// of GxB_print's short mode.
func (m *Matrix[T]) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%dx%d GrB Matrix, %s format", m.nr, m.nc, m.format)
	if m.format == FormatSparse {
		fmt.Fprintf(&sb, ", %d entries", m.ptr[m.nr])
		if len(m.pend) > 0 {
			fmt.Fprintf(&sb, ", %d pending", len(m.pend))
		}
		if m.jumbled {
			sb.WriteString(", jumbled")
		}
	} else {
		fmt.Fprintf(&sb, ", %d entries", m.nvalsUpper())
	}
	return sb.String()
}

// Sprint renders every entry; intended for small matrices in tests and the
// notation example.
func (m *Matrix[T]) Sprint() string {
	rows, cols, vals := m.ExtractTuples()
	var sb strings.Builder
	sb.WriteString(m.String())
	sb.WriteByte('\n')
	for k := range rows {
		fmt.Fprintf(&sb, "  (%d,%d) = %v\n", rows[k], cols[k], vals[k])
	}
	return sb.String()
}

// String renders a compact vector summary.
func (v *Vector[T]) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "length-%d GrB Vector, %s format", v.nc, v.format)
	switch v.format {
	case FormatSparse:
		fmt.Fprintf(&sb, ", %d entries", len(v.idx))
		if len(v.pend) > 0 {
			fmt.Fprintf(&sb, ", %d pending", len(v.pend))
		}
		if v.jumbled {
			sb.WriteString(", jumbled")
		}
	case FormatBitmap:
		fmt.Fprintf(&sb, ", %d entries", v.nvalsB)
	default:
		fmt.Fprintf(&sb, ", %d entries", v.nc)
	}
	return sb.String()
}

// Sprint renders every entry of a small vector.
func (v *Vector[T]) Sprint() string {
	idx, vals := v.ExtractTuples()
	var sb strings.Builder
	sb.WriteString(v.String())
	sb.WriteByte('\n')
	for k := range idx {
		fmt.Fprintf(&sb, "  (%d) = %v\n", idx[k], vals[k])
	}
	return sb.String()
}
