package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) in
// MiB; 0 where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// memWindow brackets a measured phase to attribute allocations and GC
// pauses to it.
type memWindow struct {
	before runtime.MemStats
}

func startMemWindow() *memWindow {
	w := &memWindow{}
	runtime.ReadMemStats(&w.before)
	return w
}

// end returns the heap allocations made since the window opened and the
// stop-the-world pauses of the collections that ran in it (at most the 256
// the runtime remembers), in milliseconds.
func (w *memWindow) end() (mallocs float64, pausesMS []float64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	n := after.NumGC - w.before.NumGC
	if n > uint32(len(after.PauseNs)) {
		n = uint32(len(after.PauseNs))
	}
	for i := uint32(0); i < n; i++ {
		idx := (after.NumGC - i + 255) % 256
		pausesMS = append(pausesMS, float64(after.PauseNs[idx])/float64(time.Millisecond))
	}
	return float64(after.Mallocs - w.before.Mallocs), pausesMS
}
