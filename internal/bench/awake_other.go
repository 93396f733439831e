//go:build !linux

package bench

import "errors"

// keepAwake does nothing where SCHED_IDLE is not at hand; see
// awake_linux.go for what a halting processor costs in precision.
func keepAwake([]string) (func(), error) { return func() {}, nil }

// Spin is not available.
func Spin(int) error { return errors.New("no idle scheduling class on this system") }
