//go:build race

package lagraph

// raceEnabled gates the allocation-budget test: the race detector's
// shadow memory inflates every allocation count.
const raceEnabled = true
