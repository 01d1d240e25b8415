package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

// TestTraceFile: gts -trace writes a Chrome trace that is byte-identical
// across two runs, parses back with its spans and ID, and renders under
// gtsinspect trace. -algo takes any name in the algorithm table (sssp
// here), and an unknown one exits non-zero.
func TestTraceFile(t *testing.T) {
	dir := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", dir+string(filepath.Separator), ".", "../gtsinspect").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	gtsBin, inspectBin := filepath.Join(dir, "gts"), filepath.Join(dir, "gtsinspect")
	var files [2][]byte
	for i := range files {
		path := filepath.Join(dir, "sssp.json")
		if out, err := exec.Command(gtsBin, "-graph", "RMAT27@15", "-algo", "sssp", "-trace", path).CombinedOutput(); err != nil {
			t.Fatalf("gts -trace: %v\n%s", err, out)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = data
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Error("two gts -trace runs wrote different files")
	}
	rec, err := trace.Parse(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 || rec.ID() != "sssp-RMAT27@15" {
		t.Errorf("trace %q has %d spans", rec.ID(), rec.Len())
	}
	out, err := exec.Command(inspectBin, "trace", filepath.Join(dir, "sssp.json")).CombinedOutput()
	if err != nil || !strings.Contains(string(out), "id:        sssp-RMAT27@15") {
		t.Errorf("gtsinspect trace: err=%v, output:\n%s", err, out)
	}
	if out, err := exec.Command(gtsBin, "-graph", "RMAT27@15", "-algo", "dfs", "-trace", filepath.Join(dir, "dfs.json")).CombinedOutput(); err == nil {
		t.Errorf("gts -algo dfs succeeded:\n%s", out)
	}
}
