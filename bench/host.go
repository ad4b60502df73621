package main

import (
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// hostFacts is the result header: what a reader must know about the machine
// and the build before comparing two files.
type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GitRev     string `json:"git_rev"`
	CPUModel   string `json:"cpu_model"`
	L1dBytes   int64  `json:"l1d_bytes"`
	L2Bytes    int64  `json:"l2_bytes"`
	L3Bytes    int64  `json:"l3_bytes"`
	// PoolSideBytes is the least memory one side of a bandwidth cell
	// rotates over (see poolSlots).
	PoolSideBytes int64 `json:"bw_pool_side_bytes"`
}

func gatherHostFacts() hostFacts {
	h := hostFacts{
		NProc:         runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		GitRev:        gitRev(),
		CPUModel:      cpuModel(),
		PoolSideBytes: poolSideBytes,
	}
	for i := 0; i < 8; i++ {
		dir := "/sys/devices/system/cpu/cpu0/cache/index" + strconv.Itoa(i) + "/"
		level, typ, size := readTrim(dir+"level"), readTrim(dir+"type"), parseSize(readTrim(dir+"size"))
		switch {
		case level == "1" && typ == "Data":
			h.L1dBytes = size
		case level == "2":
			h.L2Bytes = size
		case level == "3":
			h.L3Bytes = size
		}
	}
	return h
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// parseSize reads sysfs cache sizes such as "2048K".
func parseSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	n, _ := strconv.ParseInt(s, 10, 64)
	return n * mult
}

func cpuModel() string {
	for _, line := range strings.Split(readTrim("/proc/cpuinfo"), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

// gitRev names the commit measured; the driver's checkouts are not git
// repositories, where it reads "unknown".
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// rssPeakMB is the process's peak resident set (VmHWM), in 10^6 bytes.
func rssPeakMB() float64 {
	for _, line := range strings.Split(readTrim("/proc/self/status"), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}
