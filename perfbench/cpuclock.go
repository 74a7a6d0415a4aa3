package main

import (
	"syscall"
	"time"
)

// The batch workloads are timed in CPU time rather than wall time. Linux
// charges a thread only for time it actually ran, so these clocks stand
// still while the hypervisor gives this machine's cores to another guest
// (steal) or a runnable thread waits for a core. A wall-clock timing would
// count that waiting, which the host's other guests set, against the
// program.

// cpuNow is the CPU time this process has used, user plus system, over all
// its threads.
func cpuNow() time.Duration { return rusage(syscall.RUSAGE_SELF) }

// threadCPU is the CPU time the calling OS thread has used. It measures a
// goroutine only while the goroutine is locked to its thread.
func threadCPU() time.Duration { return rusage(rusageThread) }

// rusageThread is Linux's RUSAGE_THREAD, which package syscall does not name.
const rusageThread = 1

func rusage(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
