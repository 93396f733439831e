package bench

import (
	"syscall"
	"time"
)

// sleepFor blocks the calling thread in nanosleep(2). Go's own timers
// wake a mostly idle process through epoll_wait, whose timeout is whole
// milliseconds: time.Sleep(2ms) took 2.22 ms at the median here, 2.5–2.9
// ms for minutes at a time, and never less than 1.1 ms. nanosleep took
// 2.09 ms with a p99 of 2.2 ms, and the modelled disks and the
// open-loop generator need that.
func sleepFor(d time.Duration) {
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		// ts now holds what is left
	}
}
