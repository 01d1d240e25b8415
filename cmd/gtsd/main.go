// Command gtsd serves GTS graph analytics over HTTP: it pre-loads named
// slotted-page graphs, one System each, and answers concurrent algorithm
// requests through internal/service's bounded queue, worker pool, and result
// cache.
//
// Its flags configure the daemon only. A graph's machine — GPUs, streams,
// strategy, storage, host page pool, faults, write-ahead log — lives in its
// load document (service.LoadRequest), the same JSON whether it is PUT at
// runtime or named with -load name=@file.json at startup; -load name=spec is
// the document with only its spec. Usage, with big.json holding
// {"spec":"rmat30.gts","gpus":2,"storage":"ssd","pool_bytes":268435456}:
//
//	gtsd -listen :8090 -load social=Twitter@12 -load web=UK2007@12
//	gtsd -listen :8090 -load big=@big.json -workers 8
//	gtsd -listen :8090 -load social=Twitter@12 -pprof -trace-jobs 16
//
//	curl -X POST localhost:8090/v1/graphs/social/pagerank -d '{"iterations":10}'
//	curl -X POST 'localhost:8090/v1/graphs/web/bfs?mode=async' -d '{"source":0}'
//	curl localhost:8090/v1/jobs/job-000002
//	curl localhost:8090/metrics
//
// Graphs can also be loaded at runtime, from the same document:
//
//	curl -X PUT localhost:8090/v1/graphs/rmat -d '{"spec":"RMAT27@12","gpus":2}'
//
// On SIGINT/SIGTERM the daemon stops admitting work, drains queued and
// in-flight jobs (bounded by -draintimeout), and exits.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	gts "repro"
	"repro/internal/service"
)

// loadFlags collects repeated -load arguments.
type loadFlags []string

func (l *loadFlags) String() string { return strings.Join(*l, ",") }
func (l *loadFlags) Set(s string) error {
	*l = append(*l, s)
	return nil
}

// loadDoc reads one -load argument: name=spec, or name=@file.json naming a
// load document. A document without a wal gets <walDir>/<name>.wal when
// walDir is set.
func loadDoc(arg, walDir string) (name string, doc service.LoadRequest, err error) {
	name, spec, ok := strings.Cut(arg, "=")
	if !ok || name == "" {
		return "", doc, fmt.Errorf("want name=spec or name=@file.json")
	}
	if path, ok := strings.CutPrefix(spec, "@"); ok {
		b, err := os.ReadFile(path)
		if err != nil {
			return "", doc, err
		}
		if err := json.Unmarshal(b, &doc); err != nil {
			return "", doc, fmt.Errorf("%s: %w", path, err)
		}
	} else {
		doc.Spec = spec
	}
	if doc.WAL == "" && walDir != "" {
		doc.WAL = filepath.Join(walDir, name+".wal")
	}
	return name, doc, nil
}

func main() {
	var loads loadFlags
	flag.Var(&loads, "load", "graph to pre-load as name=spec (spec: file.gts or dataset[@shrink]) or name=@file.json (a load document, the PUT /v1/graphs/{name} body); repeatable")
	listen := flag.String("listen", ":8090", "HTTP listen address")
	workers := flag.Int("workers", 4, "concurrent job executors")
	queue := flag.Int("queue", 64, "admission queue depth (full queue returns 429)")
	cache := flag.Int("cache", 256, "result-cache entries (negative disables)")
	timeout := flag.Duration("timeout", 0, "default per-job deadline (0 = none)")
	drainTimeout := flag.Duration("draintimeout", 30*time.Second, "max wait for in-flight jobs on shutdown")
	walDir := flag.String("wal-dir", "", "directory for per-graph write-ahead logs; when set, every -load graph whose document names no wal becomes mutable: its WAL at <wal-dir>/<name>.wal is replayed on startup (crash recovery) and POST /v1/graphs/{name}/ingest commits edge mutations")
	incrementalFlag := flag.Bool("incremental", false, "retain completed bfs/cc state on mutable graphs and serve `incremental: true` requests by delta-expansion across ingest epochs (results byte-identical to full recompute; unsafe deltas fall back automatically)")
	pprofFlag := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ (exposes stacks and heap contents)")
	traceJobs := flag.Int("trace-jobs", 0, "retain Chrome trace JSON for the N most recent computed jobs at /debug/trace/{id} (0 = off)")
	flag.Parse()

	if *incrementalFlag {
		log.Printf("gtsd: incremental recompute enabled on mutable graphs — retained epoch state serves delta-expansion queries")
	}
	srv := service.New(service.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheEntries:   *cache,
		DefaultTimeout: *timeout,
		TraceJobs:      *traceJobs,
		Incremental:    *incrementalFlag,
	})
	if *walDir != "" {
		if err := os.MkdirAll(*walDir, 0o755); err != nil {
			log.Fatalf("gtsd: creating -wal-dir: %v", err)
		}
	}
	for _, l := range loads {
		start := time.Now()
		name, doc, err := loadDoc(l, *walDir)
		if err == nil {
			err = srv.Load(name, doc)
		}
		if err != nil {
			log.Fatalf("gtsd: loading %s: %v", l, err)
		}
		for _, info := range srv.Graphs() {
			if info.Name == name {
				log.Printf("gtsd: loaded %s from %s: %d vertices, %d edges (%v)",
					name, doc.Spec, info.Vertices, info.Edges, time.Since(start).Round(time.Millisecond))
			}
		}
		for _, h := range srv.Health() {
			if h.Name == name && h.Mutable && h.ReplayedBatches > 0 {
				log.Printf("gtsd: %s: replayed %d committed WAL batches (epoch %d)", name, h.ReplayedBatches, h.Epoch)
			}
		}
	}

	handler := srv.Handler()
	if *pprofFlag {
		handler = service.WithPprof(handler)
		log.Printf("gtsd: pprof enabled on /debug/pprof/")
	}
	// Request bodies are bounded by the handler; the header timeout bounds
	// what a client can hold open before it has sent a request at all.
	httpSrv := &http.Server{Addr: *listen, Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() {
		log.Printf("gtsd: serving %d graphs, %d algorithms on %s", len(srv.Graphs()), len(gts.Algorithms()), *listen)
		errc <- httpSrv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("gtsd: %v — draining (up to %v)", sig, *drainTimeout)
	case err := <-errc:
		log.Fatalf("gtsd: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Stop accepting HTTP first, then drain the job queue.
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("gtsd: http shutdown: %v", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatalf("gtsd: %v", err)
	}
	st := srv.Stats()
	fmt.Printf("gtsd: drained cleanly — %d jobs completed, %d rejected, %d timed out, cache hit rate %.0f%%\n",
		st.Completed, st.Rejected, st.TimedOut, 100*st.CacheHitRate())
}
