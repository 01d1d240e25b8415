package main

import (
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// gtsdFlags is every flag gtsd accepts. A flag is an option every test and
// benchmark configuration multiplies by, so adding one is a decision, not a
// side effect: a new (or re-added) name fails TestFlagSurface until it is
// listed here.
var gtsdFlags = []string{
	"cache", "direction-opt", "draintimeout", "fault-corrupt", "fault-oom",
	"fault-seed", "fault-stall", "fault-storage", "fault-transfer", "gpus",
	"incremental", "listen", "load", "pool", "pool-bytes", "pprof", "queue",
	"storage", "strategy", "streams", "timeout", "trace-jobs", "wal-dir",
	"workers",
}

var flagLine = regexp.MustCompile(`(?m)^  -([a-z-]+)`)

func TestFlagSurface(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "gtsd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	// -h prints the usage and exits 0.
	usage, err := exec.Command(bin, "-h").CombinedOutput()
	if err != nil {
		t.Fatalf("gtsd -h: %v\n%s", err, usage)
	}
	var got []string
	for _, m := range flagLine.FindAllSubmatch(usage, -1) {
		got = append(got, string(m[1]))
	}
	sort.Strings(got)
	if strings.Join(got, " ") != strings.Join(gtsdFlags, " ") {
		t.Errorf("gtsd -h lists %d flags:\n  %v\nwant %d:\n  %v", len(got), got, len(gtsdFlags), gtsdFlags)
	}
	// A deleted knob is gone, not ignored, and a value no strategy has is
	// refused the way a bad -storage is.
	for _, tc := range []struct{ flag, value, want string }{
		{"-pool-policy", "lru", "flag provided but not defined"},
		{"-strategy", "q", `bad -strategy: gts: unknown strategy "q"`},
	} {
		out, err := exec.Command(bin, tc.flag, tc.value).CombinedOutput()
		if err == nil || !strings.Contains(string(out), tc.want) {
			t.Errorf("gtsd %s %s: err=%v, want %q in output:\n%s", tc.flag, tc.value, err, tc.want, out)
		}
	}
}
