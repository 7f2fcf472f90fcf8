package main

import (
	"syscall"
	"time"
	"unsafe"
)

// cpuClock reads the CPU time a process has used so far: the time its
// threads ran.  On a shared host the hypervisor takes a varying share of
// the CPUs away (the "stolen" share the host line reports), which stretches
// wall-clock times by 0-30% from one run to the next; the kernel does not
// count stolen time as a thread's run time, so the CPU time a request costs
// stays the same.
type cpuClock func() time.Duration

// clockProcessCPU is CLOCK_PROCESS_CPUTIME_ID: the calling process.
const clockProcessCPU = 2

// selfCPU is the benchmark's own process, which is the system under test in
// the in-process workloads.
func selfCPU() cpuClock { return clockCPU(clockProcessCPU) }

// processCPU is another process's CPU clock, as clock_getcpuclockid(3)
// makes it: ^pid<<3 | CPUCLOCK_SCHED.
func processCPU(pid int) cpuClock { return clockCPU(int32(^pid<<3 | 2)) }

// clockCPU reads clock id, or 0 once the process has gone (its requests
// fail then, and count as failures).
func clockCPU(id int32) cpuClock {
	return func() time.Duration {
		var ts syscall.Timespec
		if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(id), uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
			return 0
		}
		return time.Duration(ts.Nano())
	}
}
