package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// minScratchFree is the free space the scratch root must have before any
// workload starts: the largest workload keeps an input, an output and one
// generation of spilled runs alive at once.
const minScratchFree = 1 << 30

// environment is the header of a full report: where the numbers came from.
// The disk numbers are the sandbox's filesystem's, not a device's, so the
// filesystem type is part of every report.
type environment struct {
	ScratchFS  string `json:"scratch_fs"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitHead    string `json:"git_head"`
}

func readEnvironment(scratch string) environment {
	head := "unknown" // a driver checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		head = strings.TrimSpace(string(out))
	}
	return environment{
		ScratchFS:  fsType(scratch),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitHead:    head,
	}
}

// fsType names the filesystem holding dir by its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// checkScratch creates the scratch root and refuses a filesystem too full to
// hold the largest workload.
func checkScratch(root string) error {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return fmt.Errorf("scratch root: %w", err)
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(root, &st); err != nil {
		return fmt.Errorf("scratch root %s: %w", root, err)
	}
	if free := st.Bavail * uint64(st.Bsize); free < minScratchFree {
		return fmt.Errorf("scratch root %s has %d MiB free, need at least %d MiB",
			root, free>>20, minScratchFree>>20)
	}
	return nil
}

// peakRSSMiB is the high-water resident set of this process since the last
// resetPeakRSS: VmHWM from /proc, or getrusage's lifetime maxrss where /proc
// is absent.
func peakRSSMiB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// resetPeakRSS restarts the high-water mark at the current resident set, so
// that each repetition reports its own peak and the run reports their median:
// one unlucky collection then moves one sample, not the run's number. Where
// the kernel refuses, the mark keeps covering the whole process.
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) //nolint:errcheck // see above
}

// prewarm takes n bytes of page-cache pages from the kernel and gives them
// straight back, by writing a file under dir and removing it.
//
// The sandbox is a virtual machine whose free pages are handed back to the
// host about two seconds after they are freed; the first touch of such a
// page then costs a host fault (measured: 5 ms per MiB against 0.3 ms for a
// page still backed). A sort writes its spills and its output into new
// page-cache pages and frees them when it ends, so whether a repetition pays
// those faults depends on when the kernel's reporting worker last ran — 100 ms
// or 600 ms of system time for the same 64 MiB sort. Pre-warming before each
// repetition, outside the timed region, puts backed pages at the head of the
// free lists: the cost of the sandbox's memory balloon is paid here, not in
// the sort.
func prewarm(dir string, n int64) error {
	path := filepath.Join(dir, "prewarm")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer os.Remove(path)
	defer f.Close()
	for ; n > 0; n -= int64(len(prewarmBuf)) {
		if _, err := f.Write(prewarmBuf[:min(n, int64(len(prewarmBuf)))]); err != nil {
			return err
		}
	}
	return nil
}

var prewarmBuf = make([]byte, 1<<20)
