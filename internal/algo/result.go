package algo

import (
	"fmt"
	"strings"

	"lagraph/internal/grb"
)

// Result is what a kernel run produces: named outputs that the HTTP
// layer merges into its response envelope (alongside graph, algorithm
// and seconds) and the jobs engine caches as an opaque immutable value.
// Keys are the public API surface of each algorithm; the catalog's
// golden-conformance suite pins their shapes. The envelope's own keys
// are reserved — a kernel returning one fails loudly (CheckReserved)
// instead of having its output silently clobbered.
type Result map[string]any

// reservedResultKeys are the response-envelope fields a kernel's Result
// may not use.
var reservedResultKeys = []string{"graph", "algorithm", "seconds", "report"}

// CheckReserved reports an error when a kernel's result collides with a
// response-envelope key. The server runs it after every kernel, so a
// misregistered descriptor surfaces as an explicit failure rather than
// mysteriously wrong JSON.
func (r Result) CheckReserved() error {
	for _, k := range reservedResultKeys {
		if _, ok := r[k]; ok {
			return fmt.Errorf("algo: kernel result key %q collides with the response envelope (reserved: %s)",
				k, strings.Join(reservedResultKeys, ", "))
		}
	}
	return nil
}

// VecSummary is the JSON shape of a sparse result vector: the total
// entry count plus the first `limit` entries in index order.
type VecSummary struct {
	NVals     int        `json:"nvals"`
	Entries   []VecEntry `json:"entries"`
	Truncated bool       `json:"truncated"`
}

// VecEntry is one (index, value) pair of a VecSummary.
type VecEntry struct {
	I int     `json:"i"`
	V float64 `json:"v"`
}

// Summarize renders a sparse vector as a VecSummary with at most limit
// entries. A nil vector yields nil (the field is omitted).
func Summarize[T grb.Number](v *grb.Vector[T], limit int) *VecSummary {
	return SummarizeIf(v, limit, nil)
}

// SummarizeIf is Summarize with an entry filter (nil = keep all): NVals
// counts only kept entries, so e.g. SSSP can report reachable distances
// and leave +inf out of the JSON.
func SummarizeIf[T grb.Number](v *grb.Vector[T], limit int, keep func(i int, x T) bool) *VecSummary {
	if v == nil {
		return nil
	}
	// Never nil: an empty vector is "entries": [] on the wire.
	s := &VecSummary{Entries: make([]VecEntry, 0, max(0, min(limit, v.NVals())))}
	v.Iterate(func(i int, x T) {
		if keep != nil && !keep(i, x) {
			return
		}
		s.NVals++
		if len(s.Entries) < limit {
			s.Entries = append(s.Entries, VecEntry{I: i, V: float64(x)})
		} else {
			s.Truncated = true
		}
	})
	return s
}
