//go:build !race

package jobs

const raceEnabled = false
