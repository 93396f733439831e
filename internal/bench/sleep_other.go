//go:build !linux

package bench

import "time"

// sleepFor is time.Sleep where nanosleep(2) is not at hand; see
// sleep_linux.go for what that costs in precision.
func sleepFor(d time.Duration) { time.Sleep(d) }
