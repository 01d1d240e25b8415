package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/service"
)

// doc sets every field of the load document but wal, so a graph built from it
// takes every translation the document has.
const doc = `{"spec":"RMAT27@16","gpus":2,"strategy":"s","streams":8,
	"storage":"ssd","pool_bytes":65536,
	"faults":{"seed":3,"transfer_stall_rate":0.05}}`

// TestLoadDocumentOnFlagAndPUT: a graph loaded at startup with -load
// name=@file.json and one PUT with the same document are the same graph — equal
// GraphInfo but for the name, equal bfs bodies but for the wall-clock fields —
// and a document one path refuses, the other refuses too: gtsd exits 1, PUT
// answers 400. bfs is the direction-optimizing kernel with no option asking
// for it, and a document naming every retired field (testdata/retired.json)
// still loads.
func TestLoadDocumentOnFlagAndPUT(t *testing.T) {
	bin := buildGtsd(t)
	dir := t.TempDir()
	docPath := filepath.Join(dir, "doc.json")
	tapePath := filepath.Join(dir, "tape.json")
	if err := os.WriteFile(docPath, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	tape := `{"spec":"RMAT27@16","storage":"tape"}`
	if err := os.WriteFile(tapePath, []byte(tape), 0o644); err != nil {
		t.Fatal(err)
	}

	base := startGtsd(t, bin, "-load", "a=@"+docPath)
	if code, body := do(t, http.MethodPut, base+"/v1/graphs/b", doc); code != http.StatusCreated {
		t.Fatalf("PUT b = %d: %s", code, body)
	}
	_, listing := do(t, http.MethodGet, base+"/v1/graphs", "")
	var graphs struct{ Graphs []service.GraphInfo }
	if err := json.Unmarshal(listing, &graphs); err != nil || len(graphs.Graphs) != 2 {
		t.Fatalf("GET /v1/graphs = %s (%v)", listing, err)
	}
	a, b := graphs.Graphs[0], graphs.Graphs[1]
	if a.PoolBytes != 65536 {
		t.Errorf("graph a: pool_bytes %d, want the document's 65536", a.PoolBytes)
	}
	b.Name = a.Name
	if a != b {
		t.Errorf("GraphInfo differs beyond the name:\n  -load: %+v\n  PUT:   %+v", a, graphs.Graphs[1])
	}

	wallClock := regexp.MustCompile(`"(latency_ms|wall_ms)": [0-9.e+-]+`)
	bfs := func(graph string) string {
		code, body := do(t, http.MethodPost, base+"/v1/graphs/"+graph+"/bfs", `{"source":3}`)
		if code != http.StatusOK {
			t.Fatalf("bfs on %s = %d: %s", graph, code, body)
		}
		var job struct{ ID string }
		if err := json.Unmarshal(body, &job); err != nil {
			t.Fatal(err)
		}
		body = wallClock.ReplaceAll(body, []byte(`"$1": 0`))
		body = bytes.Replace(body, []byte(`"graph": "`+graph+`"`), []byte(`"graph": ""`), 1)
		return strings.Replace(string(body), job.ID, "", 1)
	}
	bodyA, bodyB := bfs("a"), bfs("b")
	if bodyA != bodyB {
		t.Errorf("bfs bodies differ:\n-load: %.400s\nPUT:   %.400s", bodyA, bodyB)
	}
	var res struct{ Result struct{ LevelDirs []string } }
	if err := json.Unmarshal([]byte(bodyA), &res); err != nil || !slices.Contains(res.Result.LevelDirs, "pull") {
		t.Errorf("bfs did not run the direction-optimizing kernel (LevelDirs %v, %v): %.400s", res.Result.LevelDirs, err, bodyA)
	}
	retired, err := os.ReadFile(filepath.Join("testdata", "retired.json"))
	if err != nil {
		t.Fatal(err)
	}
	if code, body := do(t, http.MethodPut, base+"/v1/graphs/c", string(retired)); code != http.StatusCreated {
		t.Errorf("PUT %s = %d, want 201: %s", retired, code, body)
	}

	if code, body := do(t, http.MethodPut, base+"/v1/graphs/t", tape); code != http.StatusBadRequest {
		t.Errorf("PUT with storage tape = %d, want 400: %s", code, body)
	}
	out, err := exec.Command(bin, "-listen", "127.0.0.1:1", "-load", "t=@"+tapePath).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), `unknown storage "tape"`) {
		t.Errorf("gtsd -load t=@tape.json: %v, want exit status 1 naming the storage:\n%s", err, out)
	}
}

// TestLoadDoc: a plain spec is the document with only its spec; a document's
// own wal is used as given, and -wal-dir fills in the ones without.
func TestLoadDoc(t *testing.T) {
	dir := t.TempDir()
	withWAL := filepath.Join(dir, "with.json")
	if err := os.WriteFile(withWAL, []byte(`{"spec":"RMAT26@15","wal":"/elsewhere/x.wal","gpus":2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		arg, walDir string
		name        string
		want        service.LoadRequest
	}{
		{"p=RMAT27@16", "", "p", service.LoadRequest{Spec: "RMAT27@16"}},
		{"p=RMAT27@16", "/w", "p", service.LoadRequest{Spec: "RMAT27@16", WAL: "/w/p.wal"}},
		{"d=@" + withWAL, "/w", "d", service.LoadRequest{Spec: "RMAT26@15", WAL: "/elsewhere/x.wal", GPUs: 2}},
	} {
		name, got, err := loadDoc(tc.arg, tc.walDir)
		if err != nil || name != tc.name || got != tc.want {
			t.Errorf("loadDoc(%q, %q) = %q, %+v, %v; want %q, %+v", tc.arg, tc.walDir, name, got, err, tc.name, tc.want)
		}
	}
	for _, bad := range []string{"nospec", "=RMAT27@16", "m=@" + filepath.Join(dir, "missing.json")} {
		if _, _, err := loadDoc(bad, ""); err == nil {
			t.Errorf("loadDoc(%q) succeeded", bad)
		}
	}
}

// startGtsd runs bin on a free loopback port with args until the test ends,
// and returns its base URL once it is ready.
func startGtsd(t *testing.T, bin string, args ...string) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	var log bytes.Buffer
	cmd := exec.Command(bin, append([]string{"-listen", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = &log, &log
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	t.Cleanup(func() {
		cmd.Process.Signal(syscall.SIGTERM)
		<-exited
	})
	base := "http://" + addr
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		select {
		case err := <-exited:
			t.Fatalf("gtsd exited: %v\n%s", err, log.String())
		default:
		}
		if resp, err := http.Get(base + "/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return base
			}
		}
	}
	t.Fatalf("gtsd not ready after 30s:\n%s", log.String())
	return ""
}

// do sends one request and returns the status and body.
func do(t *testing.T, method, url, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}
