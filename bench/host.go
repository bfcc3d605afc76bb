package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/blas"
)

// host is the fingerprint every result carries: numbers from two hosts, or
// from two kernels on one host, must not be compared as if they were one.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	FMAKernel  bool   `json:"blas_has_fma_kernel"`
	// LLCBytes is the last-level cache size the kernel reports for cpu0 (0
	// when unreadable) and CopyArrayBytes the size of each array of the
	// mem.copy_gbps probe; bandwidth read from arrays smaller than four
	// LLCs may include cache hits.
	LLCBytes       int64 `json:"llc_bytes"`
	CopyArrayBytes int64 `json:"copy_array_bytes"`
}

// copyArrayBytes is the size of each of the two arrays the copy probe uses.
const copyArrayBytes = 64 << 20

func fingerprint() host {
	return host{
		NProc:          runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		GoVersion:      runtime.Version(),
		CPUModel:       cpuModel(),
		FMAKernel:      blas.HasFMAKernel(),
		LLCBytes:       llcBytes(),
		CopyArrayBytes: copyArrayBytes,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return runtime.GOARCH
}

// llcBytes reads the size of the highest-index cache of cpu0 from sysfs.
func llcBytes() int64 {
	var last int64
	for i := 0; ; i++ {
		data, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index" + strconv.Itoa(i) + "/size")
		if err != nil {
			return last
		}
		s := strings.TrimSpace(string(data))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if n, err := strconv.ParseInt(s, 10, 64); err == nil {
			last = n * mult
		}
	}
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// copyGBps measures the host's sustained copy rate over two arrays of
// copyArrayBytes each, in payload bytes per second (one array's bytes per
// copy; the memory traffic is twice that). It is the yardstick for
// mpi.bcast_gbps: the in-process network is a memcpy.
func copyGBps(samples int) float64 {
	src := make([]float64, copyArrayBytes/8)
	dst := make([]float64, copyArrayBytes/8)
	for i := range src {
		src[i] = float64(i)
	}
	sec := sampleSeconds(samples, time.Millisecond, func() { copy(dst, src) })
	return copyArrayBytes / sec / 1e9
}
