package grb

import "sync/atomic"

// Runtime configuration. These knobs exist so the benchmark harness can
// ablate the substrate features the paper's evaluation discusses (bitmap
// format for the pull direction, the lazy sort) without recompiling.
// They are process-global, like the SuiteSparse:GraphBLAS global options.

type config struct {
	bitmapEnabled   atomic.Bool
	lazySortEnabled atomic.Bool
}

var global config

func init() {
	global.bitmapEnabled.Store(true)
	global.lazySortEnabled.Store(true)
}

const (
	// bitmapSwitchDen: a sparse result converts to bitmap once at least
	// 1/bitmapSwitchDen of its positions hold an entry.
	bitmapSwitchDen = 8
	// maxDenseEntries caps nrows*ncols for bitmap/full allocation of a
	// store of more than one row, so a huge sparse adjacency matrix is
	// never densified. A store of one row — a vector — is as long as a
	// graph has vertices, and is not subject to it.
	maxDenseEntries = 1 << 24
)

// SetBitmapEnabled toggles the bitmap/full formats globally. When disabled,
// all results conform to sparse (CSR) storage — the pre-v4 SS:GrB behaviour
// the paper compares against. Returns the previous setting.
func SetBitmapEnabled(on bool) bool {
	old := global.bitmapEnabled.Load()
	global.bitmapEnabled.Store(on)
	return old
}

// BitmapEnabled reports whether dense formats may be chosen automatically.
func BitmapEnabled() bool { return global.bitmapEnabled.Load() }

// SetLazySortEnabled toggles the lazy sort. When disabled, every operation
// that produces jumbled rows sorts them eagerly before returning. Returns
// the previous setting.
func SetLazySortEnabled(on bool) bool {
	old := global.lazySortEnabled.Load()
	global.lazySortEnabled.Store(on)
	return old
}

// LazySortEnabled reports whether results may be left jumbled.
func LazySortEnabled() bool { return global.lazySortEnabled.Load() }

// wantBitmap reports whether a sparse nr-by-nc store holding nvals entries
// should be stored as bitmap. Past maxDenseEntries only a store of one row
// (a vector) may be.
func wantBitmap(nvals, nr, nc int) bool {
	size := int64(nr) * int64(nc)
	if !BitmapEnabled() || size <= 0 || nr > 1 && size > maxDenseEntries {
		return false
	}
	return int64(nvals)*bitmapSwitchDen >= size
}

// wantSparse reports whether a bitmap structure has become sparse enough to
// convert back. A hysteresis factor of 2 avoids flapping at the boundary.
func wantSparse(nvals int, size int64) bool {
	if size <= 0 {
		return true
	}
	return int64(nvals)*bitmapSwitchDen*2 < size
}
