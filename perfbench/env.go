package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
)

// cpuTime returns the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's maximum resident set size in MB
// (Linux reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// probeSink keeps the probe's result live so the compiler cannot drop it.
var probeSink [32]byte

// hostProbe times a fixed amount of single-threaded CPU work: 64 rounds of
// SHA-256 over 1 MiB. It diagnoses a noisy host (steal time, throttling);
// it never filters runs or rescales metrics.
func hostProbe() time.Duration {
	buf := make([]byte, 1<<20)
	start := time.Now()
	for i := 0; i < 64; i++ {
		buf[0] = byte(i)
		probeSink = sha256.Sum256(buf)
	}
	return time.Since(start)
}

// fsMagic names the filesystems a data dir is likely to sit on.
var fsMagic = map[int64]string{
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x01021994: "tmpfs",
	0x794C7630: "overlayfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
	0x2FC12FC1: "zfs",
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// commit returns the revision run.sh found the checkout at.
func commit() string {
	if c := os.Getenv("MOCHY_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// envLine describes the machine and build a run measured on.
func envLine() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
}

// memCounters reads the process's cumulative allocation and GC counts.
func memCounters() (allocBytes uint64, gcCycles uint32) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc, m.NumGC
}
