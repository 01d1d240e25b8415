package main

import (
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestToolsStartUp builds gtsgen, gtsinspect and gts and runs each the way a
// user would: gtsgen writes a small store, gtsinspect reads it and reports
// the counts gtsgen wrote, gts runs a BFS over it
// and prints its metrics, and a bad flag value stops every tool with a
// non-zero exit.
func TestToolsStartUp(t *testing.T) {
	dir := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", dir+string(filepath.Separator), ".", "../gtsinspect", "../gts").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(tool string, args ...string) string {
		t.Helper()
		out, err := exec.Command(filepath.Join(dir, tool), args...).CombinedOutput()
		if err != nil {
			t.Fatalf("%s %s: %v\n%s", tool, strings.Join(args, " "), err, out)
		}
		return string(out)
	}
	// counts pulls the vertex, edge, SP and LP figures out of a tool's output
	// with one pattern per figure.
	counts := func(out string, patterns ...string) []string {
		t.Helper()
		var got []string
		for _, p := range patterns {
			m := regexp.MustCompile(p).FindStringSubmatch(out)
			if m == nil {
				t.Fatalf("no %q in:\n%s", p, out)
			}
			got = append(got, m[1:]...)
		}
		return got
	}

	store := filepath.Join(dir, "g.gts")
	want := counts(run("gtsgen", "-dataset", "RMAT27", "-shrink", "16", "-o", store),
		`(\d+) vertices`, `(\d+) edges`, `(\d+) SP \+ (\d+) LP pages`)
	got := counts(run("gtsinspect", store),
		`vertices: +(\d+)`, `edges: +(\d+)`, `pages: +(\d+) SP \+ (\d+) LP`)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("gtsinspect reports vertices, edges, SP, LP = %v; gtsgen wrote %v", got, want)
	}
	bfs := run("gts", "-graph", store, "-algo", "bfs")
	for _, line := range []string{"BFS from 0: reached", "elapsed (virtual):", "pages streamed:", "throughput:"} {
		if !strings.Contains(bfs, line) {
			t.Errorf("gts -algo bfs printed no %q:\n%s", line, bfs)
		}
	}

	for _, args := range [][]string{
		{"gtsgen", "-shrink", "banana"},
		{"gtsinspect", "trace", "-width", "banana", store},
		{"gts", "-graph", store, "-strategy", "q"},
	} {
		if out, err := exec.Command(filepath.Join(dir, args[0]), args[1:]...).CombinedOutput(); err == nil {
			t.Errorf("%s exited 0:\n%s", strings.Join(args, " "), out)
		}
	}
}
