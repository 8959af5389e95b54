package bench

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// loadGoroutines is how many goroutines (and connections) generate
// load: a trickle's generator and its visibility checker, or the
// chart-read clients. It equals nproc on the reference box; a box with
// fewer CPUs would time-share load against the system under test.
const loadGoroutines = 2

// Host describes where and how a run was made.
type Host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func hostInfo() Host {
	h := Host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// checkHost refuses to measure where the numbers would not mean what
// they say: under the race detector, or with load goroutines
// outnumbering the CPUs.
func checkHost(h Host) error {
	if raceEnabled {
		return fmt.Errorf("bench: built with -race; timings under the race detector are not comparable")
	}
	if h.NProc < loadGoroutines || h.GOMAXPROCS < loadGoroutines {
		return fmt.Errorf("bench: %d load goroutines exceed nproc=%d / GOMAXPROCS=%d", loadGoroutines, h.NProc, h.GOMAXPROCS)
	}
	return nil
}

// rusage reads the process's user+system CPU time and peak RSS.
func rusage() (cpu time.Duration, maxRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu, float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// liveHeap is HeapAlloc after two collections: what the warehouses,
// aggregates and caches retain, not what the last batch left behind.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
