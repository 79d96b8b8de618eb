//go:build race

package algo

// raceEnabled gates the allocation-count test: the race detector's
// instrumentation allocates on its own.
const raceEnabled = true
