package main

import (
	"syscall"
	"time"
	"unsafe"
)

const (
	clockProcessCPUTimeID = 2
	clockThreadCPUTimeID  = 3
)

func clockNow(id uintptr) time.Duration {
	var ts syscall.Timespec
	// Both clocks exist on every Linux since 2.6.12, and ts is valid, so a
	// failure is a bug here.
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// cpuNow is the CPU time of the whole process, all threads, user and
// system. It stands still while the host runs another guest on this VM's
// CPUs; wall time does not.
func cpuNow() time.Duration { return clockNow(clockProcessCPUTimeID) }

// threadCPUNow is the CPU time of the calling OS thread.
func threadCPUNow() time.Duration { return clockNow(clockThreadCPUTimeID) }
