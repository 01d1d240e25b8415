package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestFlagSurface builds the command and checks the two ends of its flag
// set: -list still names every experiment, and the deleted benchmark lane's
// -json is an unknown flag rather than a silent no-op.
func TestFlagSurface(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "gtsbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-list").CombinedOutput()
	if err != nil {
		t.Fatalf("gtsbench -list: %v\n%s", err, out)
	}
	for _, id := range experiments.IDs() {
		if !strings.Contains(string(out), id) {
			t.Errorf("gtsbench -list does not name experiment %q:\n%s", id, out)
		}
	}
	out, err = exec.Command(bin, "-json").CombinedOutput()
	if err == nil || !strings.Contains(string(out), "flag provided but not defined") {
		t.Errorf("gtsbench -json: err=%v, output:\n%s", err, out)
	}
}
