package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestTraceRefusesNonChrome: `gtsinspect trace` reads only Chrome
// trace_event JSON. A file in the retired one-span-per-line format, or a JSON
// object with no traceEvents array, exits non-zero with an error instead of
// rendering an empty timeline.
func TestTraceRefusesNonChrome(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "gtsinspect")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for name, body := range map[string]string{
		"spans.ndjson": "{\"format\":\"gts-trace/1\",\"trace_id\":\"t\"}\n" +
			"{\"kind\":\"kernel\",\"gpu\":0,\"stream\":0,\"page\":3,\"level\":0,\"start\":5000,\"end\":9000}\n",
		"empty.json": "{}\n",
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := exec.Command(bin, "trace", path).CombinedOutput()
		if err == nil {
			t.Errorf("gtsinspect trace %s succeeded:\n%s", name, out)
			continue
		}
		if !strings.Contains(string(out), "gtsinspect: trace:") {
			t.Errorf("gtsinspect trace %s: no parse error in the output:\n%s", name, out)
		}
	}
}
