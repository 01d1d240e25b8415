package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/trace"
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
// -json is an unknown flag rather than a silent no-op.
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
	out, err = exec.Command(bin, "-json").CombinedOutput()
	if err == nil || !strings.Contains(string(out), "flag provided but not defined") {
		t.Errorf("gtsbench -json: err=%v, output:\n%s", err, out)
	}
}

// TestTraceAnyTableAlgorithm: -trace-algo takes any name in the algorithm
// table, sssp among them (the command's own list used to lack it), and an
// unknown one exits non-zero.
func TestTraceAnyTableAlgorithm(t *testing.T) {
	bin := build(t)
	path := filepath.Join(t.TempDir(), "sssp.json")
	if out, err := exec.Command(bin, "-trace", path, "-trace-algo", "sssp", "-shrink", "15").CombinedOutput(); err != nil {
		t.Fatalf("gtsbench -trace-algo sssp: %v\n%s", err, out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := trace.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 || rec.ID() != "sssp-RMAT27@15" {
		t.Errorf("trace %q has %d spans", rec.ID(), rec.Len())
	}
	if out, err := exec.Command(bin, "-trace", path, "-trace-algo", "dfs", "-shrink", "15").CombinedOutput(); err == nil {
		t.Errorf("gtsbench -trace-algo dfs succeeded:\n%s", out)
	}
}
