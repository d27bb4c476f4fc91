package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// stamp records where a document was measured. Two documents are
// comparable only when every field but Commit matches.
type stamp struct {
	CPUs       int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	// DataFS is the filesystem type under the data directory; every node
	// store and channel store of a run lives there. It is whatever the
	// host mounts, not a claim about a real SSD.
	DataFS string `json:"data_fs"`
	// Network is always loopback TCP inside one process: latency is
	// software only, not a claim about a real WAN.
	Network string `json:"network"`
	Commit  string `json:"commit"`
}

func hostStamp(dataDir string) stamp {
	return stamp{
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		DataFS:     fsType(dataDir),
		Network:    "loopback TCP",
		Commit:     gitCommit(),
	}
}

// sameHost reports whether two documents were measured on the same host
// shape, and names the first field that differs.
func (s stamp) sameHost(o stamp) (bool, string) {
	switch {
	case s.CPUs != o.CPUs:
		return false, "nproc"
	case s.GOMAXPROCS != o.GOMAXPROCS:
		return false, "gomaxprocs"
	case s.GoVersion != o.GoVersion:
		return false, "go_version"
	case s.GOOS != o.GOOS || s.GOARCH != o.GOARCH:
		return false, "goos/goarch"
	case s.DataFS != o.DataFS:
		return false, "data_fs"
	}
	return true, ""
}

// gitCommit is the checkout's HEAD, or "unknown" when the working
// directory is not the root of a git checkout (the benchmark driver runs
// in an exported tree, and git must not go looking above it).
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// fsType finds the filesystem type of the longest mount point that
// contains dir, from /proc/self/mounts.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, bestType := "", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mount := fields[1]
		if mount != "/" && abs != mount && !strings.HasPrefix(abs, mount+"/") {
			continue
		}
		if len(mount) > len(best) {
			best, bestType = mount, fields[2]
		}
	}
	return bestType
}
