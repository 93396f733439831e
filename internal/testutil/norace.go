//go:build !race

// Package testutil holds the helpers shared by the tests of several
// packages.
package testutil

// RaceEnabled reports whether the build runs under the race detector.
const RaceEnabled = false
