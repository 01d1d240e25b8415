// Command gtsd serves GTS graph analytics over HTTP: it pre-loads named
// slotted-page graphs, pools engines per graph, and answers concurrent
// algorithm requests through internal/service's bounded queue, worker
// pool, and result cache.
//
// Usage:
//
//	gtsd -listen :8090 -load social=Twitter@12 -load web=UK2007@12
//	gtsd -listen :8090 -load big=rmat30.gts -pool 8 -workers 8 -gpus 2
//	gtsd -listen :8090 -load big=rmat30.gts -storage ssd -pool-bytes 268435456
//	gtsd -listen :8090 -load social=Twitter@12 -pprof -trace-jobs 16
//
//	curl -X POST localhost:8090/v1/graphs/social/pagerank -d '{"iterations":10}'
//	curl -X POST 'localhost:8090/v1/graphs/web/bfs?mode=async' -d '{"source":0}'
//	curl localhost:8090/v1/jobs/job-000002
//	curl localhost:8090/metrics
//
// Graphs can also be loaded at runtime:
//
//	curl -X PUT localhost:8090/v1/graphs/rmat -d '{"spec":"RMAT27@12","pool":4}'
//
// On SIGINT/SIGTERM the daemon stops admitting work, drains queued and
// in-flight jobs (bounded by -draintimeout), and exits.
package main

import (
	"context"
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

// loadFlags collects repeated -load name=spec arguments.
type loadFlags []string

func (l *loadFlags) String() string { return strings.Join(*l, ",") }
func (l *loadFlags) Set(s string) error {
	*l = append(*l, s)
	return nil
}

func main() {
	var loads loadFlags
	flag.Var(&loads, "load", "graph to pre-load as name=spec (spec: file.gts or dataset[@shrink]); repeatable")
	listen := flag.String("listen", ":8090", "HTTP listen address")
	workers := flag.Int("workers", 4, "concurrent job executors")
	queue := flag.Int("queue", 64, "admission queue depth (full queue returns 429)")
	pool := flag.Int("pool", 4, "engines per graph")
	cache := flag.Int("cache", 256, "result-cache entries (negative disables)")
	timeout := flag.Duration("timeout", 0, "default per-job deadline (0 = none)")
	drainTimeout := flag.Duration("draintimeout", 30*time.Second, "max wait for in-flight jobs on shutdown")
	gpus := flag.Int("gpus", 1, "GPUs per pooled engine")
	streams := flag.Int("streams", 0, "GPU streams per engine (0 = default 32)")
	strategy := flag.String("strategy", "p", "multi-GPU strategy: p (performance) | s (scalability)")
	directionOpt := flag.Bool("direction-opt", false, "serve bfs with the direction-optimizing frontier kernel (per-level push/pull; levels identical to the plain kernel; every other algorithm, sssp included, runs its plain kernel)")
	storage := flag.String("storage", "mem", "graph placement: mem (all in main memory) | ssd | hdd (stream pages from simulated storage)")
	poolBytes := flag.Int64("pool-bytes", 0, "shared host page-pool budget per graph in bytes — one pinned buffer (victim: the page most recently released, which a cyclic scan reuses last) ALL of a graph's engines stream through, so hot pages occupy host memory once however many jobs run and stay warm between jobs (0 = a fresh private buffer of 20% of the topology per run; needs -storage ssd|hdd)")
	faultSeed := flag.Int64("fault-seed", 0, "fault-injection seed (chaos testing; replayable)")
	faultTransfer := flag.Float64("fault-transfer", 0, "probability of a PCI-E transfer error per DMA [0,1]")
	faultStall := flag.Float64("fault-stall", 0, "probability of a PCI-E transfer stall per DMA [0,1]")
	faultStorage := flag.Float64("fault-storage", 0, "probability of a storage read error per page [0,1]")
	faultCorrupt := flag.Float64("fault-corrupt", 0, "probability of page corruption per storage read [0,1]")
	faultOOM := flag.Int64("fault-oom", 0, "kernel-launch ordinal that fails with device OOM (0 = never)")
	walDir := flag.String("wal-dir", "", "directory for per-graph write-ahead logs; when set, every -load graph becomes mutable: its WAL at <wal-dir>/<name>.wal is replayed on startup (crash recovery) and POST /v1/graphs/{name}/ingest commits edge mutations")
	incrementalFlag := flag.Bool("incremental", false, "retain completed bfs/cc state on mutable graphs and serve `incremental: true` requests by delta-expansion across ingest epochs (results byte-identical to full recompute; unsafe deltas fall back automatically)")
	pprofFlag := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ (exposes stacks and heap contents)")
	traceJobs := flag.Int("trace-jobs", 0, "retain Chrome trace JSON for the N most recent computed jobs at /debug/trace/{id} (0 = off)")
	flag.Parse()

	strat, err := gts.ParseStrategy(*strategy)
	if err != nil {
		log.Fatalf("gtsd: bad -strategy: %v", err)
	}
	engineCfg := gts.Config{
		GPUs: *gpus, Streams: *streams, Strategy: strat,
		DirectionOpt: *directionOpt,
		PoolBytes:    *poolBytes,
	}
	switch strings.ToLower(*storage) {
	case "", "mem", "memory":
	case "ssd", "ssds":
		engineCfg.Storage = gts.SSDs
	case "hdd", "hdds":
		engineCfg.Storage = gts.HDDs
	default:
		log.Fatalf("gtsd: bad -storage %q (want mem, ssd, or hdd)", *storage)
	}
	if engineCfg.PoolBytes > 0 && engineCfg.Storage != gts.InMemory {
		log.Printf("gtsd: shared host page pool enabled — each graph's hot pages buffer in host memory once, shared by its whole engine pool")
	} else if engineCfg.PoolBytes > 0 {
		log.Printf("gtsd: ignoring -pool-bytes: graphs are in-memory (set -storage ssd or hdd)")
	}
	plan := gts.FaultPlan{
		Seed:              *faultSeed,
		TransferErrorRate: *faultTransfer,
		TransferStallRate: *faultStall,
		StorageErrorRate:  *faultStorage,
		CorruptionRate:    *faultCorrupt,
	}
	if *faultOOM > 0 {
		plan.OOMKernelLaunches = []int64{*faultOOM}
	}
	if plan.Enabled() {
		engineCfg.Faults = &plan
		log.Printf("gtsd: fault injection armed (seed %d)", plan.Seed)
	}
	if *directionOpt {
		log.Printf("gtsd: direction-optimizing frontier kernel enabled for bfs")
	}

	if *incrementalFlag {
		if *walDir == "" {
			log.Printf("gtsd: ignoring -incremental: graphs are immutable (set -wal-dir to make -load graphs mutable)")
		} else {
			log.Printf("gtsd: incremental recompute enabled — retained epoch state serves delta-expansion queries")
		}
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
		name, spec, ok := strings.Cut(l, "=")
		if !ok {
			log.Fatalf("gtsd: bad -load %q (want name=spec)", l)
		}
		start := time.Now()
		if *walDir != "" {
			walPath := filepath.Join(*walDir, name+".wal")
			if err := srv.LoadMutableGraph(name, spec, walPath, engineCfg, *pool); err != nil {
				log.Fatalf("gtsd: loading %s: %v", l, err)
			}
		} else if err := srv.LoadGraph(name, spec, engineCfg, *pool); err != nil {
			log.Fatalf("gtsd: loading %s: %v", l, err)
		}
		for _, info := range srv.Graphs() {
			if info.Name == name {
				log.Printf("gtsd: loaded %s from %s: %d vertices, %d edges, pool of %d engines (%v)",
					name, spec, info.Vertices, info.Edges, info.Pool, time.Since(start).Round(time.Millisecond))
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
		log.Printf("gtsd: serving %d graphs, %d algorithms on %s", len(srv.Graphs()), len(service.Algorithms()), *listen)
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
