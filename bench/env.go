package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// envStamp identifies what was measured and where. Tree names the source
// that was built — a hash of every .go and go.mod file under the repository
// root — so a record is tied to the tree it measured even in a checkout
// that is not a git repository; GitRev and GitDirty are added when git
// answers.
type envStamp struct {
	Tree       string `json:"tree"`
	GitRev     string `json:"git_rev,omitempty"`
	GitDirty   bool   `json:"git_dirty,omitempty"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	Graph      string `json:"graph"`
	Seed       int64  `json:"seed"`
	Passes     int    `json:"passes"`
	Rounds     int    `json:"rounds_per_pass"`
	Traced     bool   `json:"traced"`
	Time       string `json:"time"`
}

func newEnvStamp(o options) envStamp {
	st := envStamp{
		Tree:       treeHash(),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Graph:      o.graph(),
		Seed:       o.seed,
		Passes:     o.passes(),
		Rounds:     o.rounds(),
		Traced:     o.trace,
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		st.Kernel = strings.TrimSpace(string(b))
	}
	if rev, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		st.GitRev = strings.TrimSpace(string(rev))
		if out, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			st.GitDirty = len(strings.TrimSpace(string(out))) > 0
		}
	}
	return st
}

// treeHash hashes the Go sources of the repository the benchmark was started
// in (its bench directory or its root), skipping build and output
// directories. Anywhere else, or on an unreadable tree, it is "unknown".
func treeHash() string {
	root := ""
	for _, dir := range []string{"..", "."} {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(b), "module repro\n") {
			root = dir
			break
		}
	}
	if root == "" {
		return "unknown"
	}
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_build", "out", "results":
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		h.Write([]byte(filepath.ToSlash(f)))
		h.Write([]byte{0})
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuTimes reads the machine-wide jiffies from the first line of
// /proc/stat: total and the share stolen by the hypervisor.
func cpuTimes() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		// user nice system idle iowait irq softirq steal; the guest columns
		// after steal are already counted inside user and nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// processCPU is user + system time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (ru_maxrss is in KiB
// on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
