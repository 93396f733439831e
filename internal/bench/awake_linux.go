package bench

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// A virtual processor that runs out of work halts, and the host decides
// when it wakes again: on the reference box a 2 ms nanosleep in an
// otherwise idle process took 2.3 to 5.0 ms on average, by the minute,
// and 2.06 to 2.4 ms with every processor kept busy (README.md, "The
// halted processor"). The stacks with modelled disks sleep most of the
// time and every set-up is thousands of goroutine round trips, so for
// the length of a run the benchmark keeps each processor from halting
// with a spinner process of the lowest scheduling class (SCHED_IDLE),
// which any other thread preempts at once.

// keepAwake starts one spinner per processor this process may run on,
// each by running cmd with the processor's number appended, and returns
// what stops them and waits until they have ended.
func keepAwake(cmd []string) (stop func(), err error) {
	var mask [16]uint64 // 1024 processors
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return nil, fmt.Errorf("bench: sched_getaffinity: %w", errno)
	}
	var procs []*exec.Cmd
	stop = func() {
		for _, p := range procs {
			_ = p.Process.Kill() // fails only if it has ended already
			_ = p.Wait()         // "signal: killed", as asked
		}
	}
	for cpu := 0; cpu < 64*len(mask); cpu++ {
		if mask[cpu/64]&(1<<(cpu%64)) == 0 {
			continue
		}
		p := exec.Command(cmd[0], append(cmd[1:len(cmd):len(cmd)], strconv.Itoa(cpu))...)
		p.Stderr = os.Stderr // a spinner that cannot become one says why and ends
		if err := p.Start(); err != nil {
			stop()
			return nil, fmt.Errorf("bench: starting a spinner: %w", err)
		}
		procs = append(procs, p)
	}
	return stop, nil
}

// Spin is a spinner process: it binds itself to one processor, drops to
// SCHED_IDLE and burns what nobody else wants until it is killed or its
// parent is gone.
func Spin(cpu int) error {
	var mask [16]uint64
	if cpu < 0 || cpu >= 64*len(mask) {
		return fmt.Errorf("no processor %d", cpu)
	}
	runtime.LockOSThread()
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return fmt.Errorf("sched_setaffinity: %w", errno)
	}
	const schedIdle = 5
	var prio int32 // struct sched_param
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&prio))); errno != 0 {
		return fmt.Errorf("sched_setscheduler: %w", errno)
	}
	for parent := os.Getppid(); os.Getppid() == parent; {
		for t0 := time.Now(); time.Since(t0) < 10*time.Millisecond; {
		}
	}
	return nil
}
