package main

import (
	"math/rand"
	"runtime"
	"slices"
	"time"
)

// The calibration loop is a fixed piece of stdlib work — xorshift numbers,
// a sort, and lookups in a 64k-entry map — that calls nothing of the
// program under test. Its thread CPU time, taken after each graph of a
// rank-sepdense run and after each serve set-up round, measures how fast
// the host runs this process at the time. It allocates nothing, so the program's heap does not change it,
// and it counts only its own thread, so goroutines the program leaves
// running do not either.

var (
	calibKeys = func() []uint64 {
		r := rand.New(rand.NewSource(1))
		ks := make([]uint64, 1<<16)
		for i := range ks {
			ks[i] = r.Uint64()
		}
		return ks
	}()
	calibMap = func() map[uint64]uint64 {
		m := make(map[uint64]uint64, len(calibKeys))
		for i, k := range calibKeys {
			m[k] = uint64(i)
		}
		return m
	}()
	calibBuf  = make([]uint32, 1<<14)
	calibSink uint64
)

// calibrate runs the calibration loop once and returns its CPU time.
func calibrate() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPUNow()
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	var sum uint64
	for round := 0; round < 6; round++ {
		for i := range calibBuf {
			calibBuf[i] = uint32(next())
		}
		slices.Sort(calibBuf)
		for i := 0; i < len(calibBuf); i++ {
			sum += calibMap[calibKeys[next()%uint64(len(calibKeys))]]
		}
	}
	calibSink += sum
	return threadCPUNow() - c0
}
