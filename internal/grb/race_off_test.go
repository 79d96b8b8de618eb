//go:build !race

package grb

const raceEnabled = false
