//go:build race

package main

// raceEnabled: the smoke test's speed-dependent assertions are skipped
// under the race detector, which slows the workloads twentyfold.
const raceEnabled = true
