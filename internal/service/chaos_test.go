package service_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	gts "repro"
	"repro/internal/service"
	"repro/internal/trace"
)

// chaosServer hosts two pools over the same graph: "chaos" runs under a
// moderate fault plan the engine's retry budget can absorb, and "doomed"
// under a persistent transfer fault that exhausts it on every run.
func chaosServer(t *testing.T) (*httptest.Server, *gts.Graph) {
	t.Helper()
	g, _ := testGraphPair(t)
	srv := service.New(service.Config{QueueDepth: 32})

	absorb := &gts.FaultPlan{Seed: 7, TransferErrorRate: 0.05, TransferStallRate: 0.05,
		StorageErrorRate: 0.05, CorruptionRate: 0.05}
	chaosSys, err := gts.NewSystem(g, gts.Config{Faults: absorb})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddGraph("chaos", chaosSys); err != nil {
		t.Fatal(err)
	}
	doomed := &gts.FaultPlan{Seed: 7, TransferErrorRate: 1}
	doomedSys, err := gts.NewSystem(g, gts.Config{Faults: doomed})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddGraph("doomed", doomedSys); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return ts, g
}

// TestChaosConcurrentClients hammers a fault-injected service from
// concurrent clients. The contract under fault injection: every response
// is either a correct result (byte-equal to the fault-free reference) or a
// typed error status — never a corrupt payload, never a 500, and 503s
// carry Retry-After. Run under -race via `make test-race`.
func TestChaosConcurrentClients(t *testing.T) {
	ts, g := chaosServer(t)

	// Fault-free references for every request shape the clients send: the
	// service's faulted pools must reproduce these bytes exactly.
	clean, err := gts.NewSystem(g, gts.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sources := []uint64{0, 1, 5}
	wantLevels := make(map[uint64][]int16)
	for _, s := range sources {
		res, err := clean.BFS(s)
		if err != nil {
			t.Fatal(err)
		}
		wantLevels[s] = res.Levels
	}
	prRes, err := clean.PageRank(0.85, 5)
	if err != nil {
		t.Fatal(err)
	}
	wantRanks := prRes.Ranks

	const clients = 8
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		successes int
		failures  int
	)
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				var (
					url string
					src uint64
					alg string
				)
				switch (c + i) % 5 {
				case 0, 1:
					alg, src = "bfs", sources[(c+i)%len(sources)]
					url = fmt.Sprintf("%s/v1/graphs/chaos/bfs", ts.URL)
				case 2:
					alg = "pagerank"
					url = ts.URL + "/v1/graphs/chaos/pagerank"
				case 3:
					alg = "doomed"
					url = ts.URL + "/v1/graphs/doomed/bfs"
				case 4:
					alg = "missing"
					url = ts.URL + "/v1/graphs/chaos/nosuchalgo"
				}
				body := "{}"
				if alg == "bfs" || alg == "doomed" {
					body = fmt.Sprintf(`{"source":%d}`, src)
				} else if alg == "pagerank" {
					body = `{"damping":0.85,"iterations":5}`
				}
				resp, err := http.Post(url, "application/json", strings.NewReader(body))
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()

				switch resp.StatusCode {
				case http.StatusOK:
					var doc struct {
						Result json.RawMessage `json:"result"`
					}
					if err := json.Unmarshal(raw, &doc); err != nil {
						t.Errorf("200 with unparsable body: %v", err)
						return
					}
					switch alg {
					case "bfs":
						var out struct{ Levels []int16 }
						if err := json.Unmarshal(doc.Result, &out); err != nil {
							t.Errorf("corrupt BFS payload: %v", err)
							return
						}
						for v, want := range wantLevels[src] {
							if out.Levels[v] != want {
								t.Errorf("BFS(src=%d) vertex %d = %d, want %d (corrupt result under faults)",
									src, v, out.Levels[v], want)
								return
							}
						}
					case "pagerank":
						var out struct{ Ranks []float32 }
						if err := json.Unmarshal(doc.Result, &out); err != nil {
							t.Errorf("corrupt PageRank payload: %v", err)
							return
						}
						for v, want := range wantRanks {
							if out.Ranks[v] != want {
								t.Errorf("PageRank vertex %d = %v, want %v (corrupt result under faults)",
									v, out.Ranks[v], want)
								return
							}
						}
					case "doomed":
						t.Error("doomed graph returned 200; its faults are persistent")
						return
					case "missing":
						t.Error("unknown algorithm returned 200")
						return
					}
					mu.Lock()
					successes++
					mu.Unlock()
				case http.StatusNotFound:
					if alg != "missing" {
						t.Errorf("%s returned 404", alg)
						return
					}
				case http.StatusServiceUnavailable:
					if resp.Header.Get("Retry-After") == "" {
						t.Error("503 without Retry-After")
						return
					}
					mu.Lock()
					failures++
					mu.Unlock()
				case http.StatusTooManyRequests, http.StatusGatewayTimeout:
					// Load shedding and deadline expiry are legitimate
					// under concurrency.
				default:
					t.Errorf("%s: unexpected status %d: %s", alg, resp.StatusCode, raw)
					return
				}
			}
		}()
	}
	wg.Wait()

	if successes == 0 {
		t.Fatal("no request survived the absorbable fault plan")
	}
	if failures == 0 {
		t.Fatal("no request hit the persistent fault plan")
	}

	// The daemon's metrics must reflect the chaos it just absorbed.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"gtsd_faults_injected_total", "gtsd_fault_retries_total",
		"gtsd_fault_recoveries_total", "gtsd_hw_failures_total",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	if !metricAbove(string(metrics), "gtsd_faults_injected_total", 0) {
		t.Error("gtsd_faults_injected_total is zero after a chaos run")
	}
	if !metricAbove(string(metrics), "gtsd_hw_failures_total", 0) {
		t.Error("gtsd_hw_failures_total is zero despite the doomed pool")
	}
}

// TestChaosTraceExportMidFault proves the recorder is race-free under
// concurrent span emission: while a fault-injected engine is mid-run
// (streams emitting copy/kernel/fault spans), a second goroutine
// continuously exports the live recorder and aggregates it. Run under -race
// via `make test-race`. The final export must still be a complete, parseable
// timeline containing the injected faults.
func TestChaosTraceExportMidFault(t *testing.T) {
	g, _ := testGraphPair(t)
	rec := trace.NewWithID("chaos-mid-fault")
	sys, err := gts.NewSystem(g, gts.Config{Trace: rec,
		Faults: &gts.FaultPlan{Seed: 7, TransferErrorRate: 0.05, TransferStallRate: 0.05,
			StorageErrorRate: 0.05, CorruptionRate: 0.05}})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	started := make(chan struct{})
	exported := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-done:
				exported <- n
				return
			default:
			}
			if n == 0 {
				close(started) // past the done check: this export overlaps the runs
			}
			if err := rec.WriteChrome(io.Discard); err != nil {
				t.Errorf("mid-run WriteChrome: %v", err)
			}
			rec.Summary()
			n++
		}
	}()
	<-started
	for i := 0; i < 3; i++ {
		if _, err := sys.BFS(uint64(i)); err != nil {
			t.Fatalf("BFS(%d) under absorbable faults: %v", i, err)
		}
	}
	close(done)
	if n := <-exported; n == 0 {
		t.Fatal("exporter goroutine never ran — the test is vacuous")
	}

	var buf strings.Builder
	if err := rec.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := trace.Parse([]byte(buf.String()))
	if err != nil {
		t.Fatalf("final export unparseable: %v", err)
	}
	if parsed.Len() != rec.Len() {
		t.Errorf("parsed %d spans, recorder holds %d", parsed.Len(), rec.Len())
	}
	var faults, runs int
	for _, s := range parsed.Spans() {
		switch s.Kind {
		case trace.Fault:
			faults++
		case trace.Run:
			runs++
		}
	}
	if faults == 0 {
		t.Error("chaos run exported no fault spans")
	}
	if runs != 3 {
		t.Errorf("exported %d run spans, want 3", runs)
	}
}

// metricAbove reports whether the exposition contains `name <v>` with
// v > floor.
func metricAbove(metrics, name string, floor float64) bool {
	for _, line := range strings.Split(metrics, "\n") {
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(line, name+" %g", &v); err == nil && v > floor {
			return true
		}
	}
	return false
}
