package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// build compiles the command into a temporary directory.
func build(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "gtsbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestFlagSurface builds the command and checks the two ends of its flag
// set: -list still names every experiment, and the deleted benchmark lane's
// -json and the traced run's -trace (now gts -trace) are unknown flags
// rather than silent no-ops.
func TestFlagSurface(t *testing.T) {
	bin := build(t)
	out, err := exec.Command(bin, "-list").CombinedOutput()
	if err != nil {
		t.Fatalf("gtsbench -list: %v\n%s", err, out)
	}
	for _, id := range experiments.IDs() {
		if !strings.Contains(string(out), id) {
			t.Errorf("gtsbench -list does not name experiment %q:\n%s", id, out)
		}
	}
	for _, flag := range []string{"-json", "-trace"} {
		out, err := exec.Command(bin, flag, "x").CombinedOutput()
		if err == nil || !strings.Contains(string(out), "flag provided but not defined") {
			t.Errorf("gtsbench %s: err=%v, output:\n%s", flag, err, out)
		}
	}
}
