//go:build !linux

package main

import "time"

var processStart = time.Now()

// cpuNow and threadCPUNow fall back to wall time off Linux.
func cpuNow() time.Duration       { return time.Since(processStart) }
func threadCPUNow() time.Duration { return time.Since(processStart) }
