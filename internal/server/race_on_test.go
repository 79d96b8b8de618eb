//go:build race

package server

// raceEnabled gates the allocation tests: the race detector's shadow
// memory inflates every allocation count.
const raceEnabled = true
