//go:build !race

package algo

const raceEnabled = false
