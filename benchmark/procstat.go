package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// clockTick is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// Linux fixes it at 100 for every architecture Go runs on.
const clockTick = 100

// cpuSeconds returns the user+system CPU time a process has used, read
// from /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(data))
}

// parseStatCPU extracts utime+stime from the text of /proc/<pid>/stat.
// The command name, field 2, is in parentheses and may hold spaces, so
// fields are counted from the last ')'.
func parseStatCPU(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("procstat: no command field in %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("procstat: short stat line %q", stat)
	}
	ut, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("procstat: utime: %w", err)
	}
	st, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("procstat: stime: %w", err)
	}
	return float64(ut+st) / clockTick, nil
}

// peakRSSMB returns VmHWM, the peak resident set of a process, in MiB.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseStatusHWM(string(data))
}

func parseStatusHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("procstat: VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("procstat: no VmHWM line")
}

// residentMB returns the resident set of a process right now, in MiB:
// the second field of /proc/<pid>/statm, in pages.
func residentMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/statm", pid))
	if err != nil {
		return 0, err
	}
	return parseStatmResident(string(data))
}

func parseStatmResident(statm string) (float64, error) {
	f := strings.Fields(statm)
	if len(f) < 2 {
		return 0, fmt.Errorf("procstat: short statm line %q", statm)
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("procstat: resident pages: %w", err)
	}
	return float64(pages) * float64(os.Getpagesize()) / (1 << 20), nil
}

// sumOver adds up one reading over a set of processes. A process that
// has gone is an error: the workloads are sized so that no executor
// restarts.
func sumOver(pids []int, read func(pid int) (float64, error)) (float64, error) {
	var total float64
	for _, pid := range pids {
		v, err := read(pid)
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// withSelf is the benchmark process followed by its executor children.
func withSelf(children []int) []int { return append([]int{os.Getpid()}, children...) }

// childCPUSeconds is the CPU time of the executor children.
func childCPUSeconds(children []int) (float64, error) { return sumOver(children, cpuSeconds) }

// cpuSecondsAll is the CPU time of the benchmark process and children.
func cpuSecondsAll(children []int) (float64, error) { return sumOver(withSelf(children), cpuSeconds) }

// peakRSSAllMB is the summed peak resident set of process and children
// since each started, set-up included.
func peakRSSAllMB(children []int) (float64, error) { return sumOver(withSelf(children), peakRSSMB) }

// residentAllMB is the summed resident set of process and children now.
func residentAllMB(children []int) (float64, error) { return sumOver(withSelf(children), residentMB) }
