//go:build race

package jobs

// raceEnabled gates the allocation test: the race detector's shadow
// memory inflates every allocation count.
const raceEnabled = true
