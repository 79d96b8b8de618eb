//go:build race

package stream

// raceEnabled gates the allocation-scaling test: the race detector's
// shadow memory inflates every allocation count.
const raceEnabled = true
