package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	gts "repro"
)

// Handler returns the service's HTTP/JSON surface:
//
//	GET  /healthz                      liveness: 200 + per-graph states
//	GET  /readyz                       readiness: 200 only when every
//	                                   graph is serving, else 503
//	GET  /metrics                      Prometheus text exposition
//	GET  /v1/graphs                    registered graphs
//	PUT  /v1/graphs/{name}             load a graph from a spec (add a
//	                                   "wal" path for a mutable graph)
//	POST /v1/graphs/{name}/ingest      commit an edge-mutation batch
//	POST /v1/graphs/{name}/{algo}      run an algorithm (sync by default;
//	                                   ?mode=async returns 202 + job ID;
//	                                   ?timeout=500ms bounds the deadline)
//	GET  /v1/jobs/{id}                 job status / result
//	GET  /debug/trace/{id}             per-job Chrome trace JSON
//	                                   (404 unless Config.Trace)
//
// Typed service errors map to statuses: ErrOverloaded → 429, unknown
// graph/algorithm/job → 404, ErrTimeout → 504, ErrShuttingDown and
// ErrGraphNotReady → 503, ErrImmutableGraph → 409, gts.ErrWontFit → 422,
// gts.ErrInvalid (an out-of-range parameter among it) → 400, as is a body
// that does not parse; one longer than maxBodyBytes is 413, refused unread.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness is always 200: the process is up; per-graph states tell
		// the rest of the story (a graph mid-recovery is alive, not ready).
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "graphs": s.Health()})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		status := http.StatusOK
		if !s.Ready() {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, map[string]any{"ready": status == http.StatusOK, "graphs": s.Health()})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.met.write(w, s.Stats())
	})
	mux.HandleFunc("GET /v1/graphs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"graphs": s.Graphs(), "algorithms": gts.Algorithms()})
	})
	mux.HandleFunc("PUT /v1/graphs/{name}", s.handleLoadGraph)
	mux.HandleFunc("POST /v1/graphs/{name}/ingest", s.handleIngest)
	mux.HandleFunc("POST /v1/graphs/{name}/{algo}", s.handleRun)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /debug/trace/{id}", s.handleTrace)
	return mux
}

// handleTrace serves a traced job's Chrome trace_event JSON, loadable in
// chrome://tracing or Perfetto.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	b, err := s.JobTrace(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(b)
}

// WithPprof wraps a handler, additionally serving the net/http/pprof
// profiling surface under /debug/pprof/. cmd/gtsd mounts it behind the
// -pprof flag: profiling endpoints expose stacks and heap contents, so
// they are opt-in.
func WithPprof(h http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", h)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// maxBodyBytes bounds every request body the service decodes. The largest
// legitimate one is an ingest batch: an edge is at most ~70 bytes of JSON
// (two 20-digit IDs and a del flag), so 8 MiB carries over 100 000 edges.
const maxBodyBytes = 8 << 20

// decodeBody decodes the request's JSON body into v, reading at most
// maxBodyBytes of it, and reports the status a failure is answered with.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) (int, error) {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge, err
	}
	return http.StatusBadRequest, err
}

func (s *Server) handleLoadGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var doc LoadRequest
	if status, err := decodeBody(w, r, &doc); err != nil {
		httpError(w, status, fmt.Errorf("bad load request: %w", err))
		return
	}
	if err := s.Load(name, doc); err != nil {
		httpError(w, statusOf(err), err)
		return
	}
	for _, info := range s.Graphs() {
		if info.Name == name {
			writeJSON(w, http.StatusCreated, info)
			return
		}
	}
	writeJSON(w, http.StatusCreated, map[string]any{"name": name})
}

// ingestRequest is the POST /v1/graphs/{name}/ingest body.
type ingestRequest struct {
	Edges []struct {
		Src uint64 `json:"src"`
		Dst uint64 `json:"dst"`
		// Del deletes every occurrence of src->dst instead of inserting.
		Del bool `json:"del,omitempty"`
	} `json:"edges"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req ingestRequest
	if status, err := decodeBody(w, r, &req); err != nil {
		httpError(w, status, fmt.Errorf("bad ingest request: %w", err))
		return
	}
	if len(req.Edges) == 0 {
		httpError(w, http.StatusBadRequest, errors.New("ingest request needs a non-empty \"edges\" list"))
		return
	}
	ops := make([]gts.EdgeOp, len(req.Edges))
	for i, e := range req.Edges {
		ops[i] = gts.EdgeOp{Del: e.Del, Src: e.Src, Dst: e.Dst}
	}
	epoch, err := s.Ingest(r.PathValue("name"), ops)
	if err != nil {
		httpError(w, statusOf(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"epoch": epoch, "applied": len(ops)})
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	req := Request{Graph: r.PathValue("name"), Algo: r.PathValue("algo")}
	// An absent or empty body means default parameters. The incremental
	// flag rides beside the params in the body but lands on the Request:
	// it selects an execution strategy, not a different result, so it must
	// stay out of the cache key Params become.
	var body struct {
		Params
		Incremental bool `json:"incremental,omitempty"`
	}
	if status, err := decodeBody(w, r, &body); err != nil && !errors.Is(err, io.EOF) {
		httpError(w, status, fmt.Errorf("bad params: %w", err))
		return
	}
	req.Params = body.Params
	req.Incremental = body.Incremental
	if t := r.URL.Query().Get("timeout"); t != "" {
		d, err := time.ParseDuration(t)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad timeout %q: %w", t, err))
			return
		}
		req.Timeout = d
	}

	if r.URL.Query().Get("mode") == "async" {
		job, err := s.Submit(req)
		if err != nil {
			httpError(w, statusOf(err), err)
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]any{
			"id":    job.ID(),
			"state": job.State().String(),
			"href":  "/v1/jobs/" + job.ID(),
		})
		return
	}

	job, err := s.Run(r.Context(), req)
	if err != nil {
		httpError(w, statusOf(err), err)
		return
	}
	writeJob(w, job)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, err := s.Lookup(r.PathValue("id"))
	if err != nil {
		httpError(w, statusOf(err), err)
		return
	}
	writeJob(w, job)
}

// respBufs recycles job-document buffers between responses. maxPooledResp
// keeps one outsized answer from pinning its buffer for the pool's lifetime.
var respBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledResp = 4 << 20

// writeJob answers 200 with job's status document, encoded into a pooled
// buffer (see appendJobJSON) and written once.
func writeJob(w http.ResponseWriter, job *Job) {
	buf := respBufs.Get().(*[]byte)
	b, err := appendJobJSON((*buf)[:0], job)
	writeBody(w, http.StatusOK, b, err)
	if cap(b) <= maxPooledResp {
		*buf = b
		respBufs.Put(buf)
	}
}

// statusOf maps service errors to HTTP statuses.
func statusOf(err error) int {
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrUnknownGraph), errors.Is(err, ErrUnknownAlgo), errors.Is(err, ErrUnknownJob):
		return http.StatusNotFound
	case errors.Is(err, ErrShuttingDown), errors.Is(err, gts.ErrHardwareFault), errors.Is(err, ErrGraphNotReady):
		// A hardware fault that survived the engine's retry budget, like a
		// graph still recovering, is a transient failure: 503 + Retry-After.
		return http.StatusServiceUnavailable
	case errors.Is(err, gts.ErrSourceOutOfRange), errors.Is(err, gts.ErrInvalid):
		return http.StatusBadRequest
	case errors.Is(err, ErrImmutableGraph):
		return http.StatusConflict
	case errors.Is(err, gts.ErrWontFit):
		// The job's working attributes do not fit the graph's devices: the
		// same request can never run on this graph's configuration.
		return http.StatusUnprocessableEntity
	case errors.Is(err, gts.ErrCrashed):
		// An injected ingest crash killed the mutable graph; reload (replay)
		// to recover.
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrTimeout), errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	writeBody(w, status, append(b, '\n'), err)
}

// writeBody answers with an encoded document. The status is committed only
// once there is a body for it: a document that failed to encode is a 500
// with the error, never a 200 cut short.
func writeBody(w http.ResponseWriter, status int, body []byte, err error) {
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body) // a client that went away is not the server's error
}

func httpError(w http.ResponseWriter, status int, err error) {
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, map[string]any{"error": err.Error(), "status": status})
}
