package main

import (
	"runtime"
	"syscall"
	"unsafe"
)

// cpuMask is a Linux CPU affinity mask.
type cpuMask [16]uint64

// allowedCPUs lists the CPUs this process may run on, at most eight.
func allowedCPUs() []int {
	var m cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return []int{-1}
	}
	var cpus []int
	for i := 0; i < len(m)*64 && len(cpus) < 8; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus
}

// onCPU runs fn on an OS thread bound to cpu (any CPU when cpu < 0 or
// the binding fails). The goroutine exits still locked to the thread,
// so the runtime discards the thread and its binding with it.
func onCPU(cpu int, fn func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		runtime.LockOSThread()
		if cpu >= 0 {
			var m cpuMask
			m[cpu/64] |= 1 << (cpu % 64)
			syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
		}
		fn()
	}()
	<-done
}
