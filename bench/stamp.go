package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// machineStamp identifies the host a record was taken on and how busy it
// was, so numbers from a loaded shared box are not mistaken for clean ones.
type machineStamp struct {
	nproc, gomaxprocs  int
	goVersion, commit  string
	cpuModel           string
	loadStart, loadEnd float64 // 1-minute load average
}

func newMachineStamp() *machineStamp {
	return &machineStamp{
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		goVersion:  runtime.Version(),
		commit:     vcsRevision(),
		cpuModel:   cpuModel(),
		loadStart:  loadAvg1(),
	}
}

func (s *machineStamp) finish() { s.loadEnd = loadAvg1() }

// noisy reports whether something else was using the machine: more than
// half the cores busy before the run began, or — the benchmark itself keeps
// one or two cores busy — more runnable work than cores by its end.
func (s *machineStamp) noisy() bool {
	return s.loadStart > float64(s.nproc)/2 || s.loadEnd > float64(s.nproc)
}

func (s *machineStamp) String() string {
	return fmt.Sprintf("machine nproc=%d GOMAXPROCS=%d go=%s commit=%s cpu=%q load1_start=%.2f load1_end=%.2f noisy_host=%t",
		s.nproc, s.gomaxprocs, s.goVersion, s.commit, s.cpuModel, s.loadStart, s.loadEnd, s.noisy())
}

// vcsRevision is the commit the binary was built from, when the build ran
// inside a git checkout; the driver's checkout is not one.
func vcsRevision() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				return s.Value[:12]
			}
		}
	}
	return "unknown"
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

func loadAvg1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64)
	return v
}
