//go:build !race

package lagraph

const raceEnabled = false
