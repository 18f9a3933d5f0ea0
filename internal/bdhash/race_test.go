//go:build race

package bdhash

// raceEnabled: assertions that depend on the workload's speed are skipped
// under the race detector, which slows it too much for them to hold.
const raceEnabled = true
