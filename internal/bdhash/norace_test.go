//go:build !race

package bdhash

const raceEnabled = false
