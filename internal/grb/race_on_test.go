//go:build race

package grb

// raceEnabled gates the allocation-scaling tests: the race detector's
// shadow memory inflates every allocation count.
const raceEnabled = true
