//go:build race

package testutil

// RaceEnabled reports whether the build runs under the race detector.
// Allocation assertions gate on it: the detector adds bookkeeping
// allocations (notably around sync.Pool), so allocs/op checks only hold
// in normal builds.
const RaceEnabled = true
