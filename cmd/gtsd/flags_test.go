package main

import (
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// gtsdFlags is every flag gtsd accepts: the daemon's own settings. What
// configures one graph's machine belongs in its load document, not here. A
// flag is an option every test and benchmark configuration multiplies by, so
// adding one is a decision, not a side effect: a new (or re-added) name fails
// TestFlagSurface until it is listed here.
var gtsdFlags = []string{
	"draintimeout", "incremental", "listen", "load", "pprof", "queue",
	"timeout", "trace", "wal-dir",
}

var flagLine = regexp.MustCompile(`(?m)^  -([a-z-]+)`)

// buildGtsd compiles this command into a temporary directory.
func buildGtsd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "gtsd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func TestFlagSurface(t *testing.T) {
	bin := buildGtsd(t)
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
	// A deleted knob is gone, not ignored: the graph settings that moved into
	// the load document, the pool whose width nothing used, and the worker
	// pool whose width capped each graph's wave groups, and the result cache's
	// and trace store's entry counts, which one byte-bounded job table
	// replaced.
	for _, tc := range []struct{ flag, value string }{
		{"-pool-policy", "lru"}, {"-pool", "2"}, {"-gpus", "2"}, {"-storage", "ssd"}, {"-fault-seed", "42"}, {"-workers", "4"},
		{"-cache", "256"}, {"-trace-jobs", "4"},
	} {
		out, err := exec.Command(bin, tc.flag, tc.value).CombinedOutput()
		if err == nil || !strings.Contains(string(out), "flag provided but not defined: "+tc.flag) {
			t.Errorf("gtsd %s %s: err=%v, want \"flag provided but not defined\" in output:\n%s", tc.flag, tc.value, err, out)
		}
	}
}
