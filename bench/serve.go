package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	gts "repro"
	"repro/internal/csr"
	"repro/internal/service"
	"repro/internal/slottedpage"
	"repro/internal/verify"
	"repro/internal/wal"
)

// fixtureBatches is how many committed batches the pre-built WAL holds:
// what serve-live's set-up has to recover before it can serve.
const fixtureBatches = 8

// serveLive drives an in-process service.Server through a loopback HTTP
// listener, closed loop over two connections. One round:
//
//	POST ingest (64 seeded edges)                      -> new epoch
//	connection A: 6 bfs over 3 sources (3 misses, 3 result-cache hits)
//	connection B: bfs and cc with "incremental": true  (in parallel with A)
//	burst: 8 distinct-source bfs?mode=async, 4 per connection, polled to
//	completion (the wave-group scheduler coalesces them)
//
// The ingest and the two barriers fix the epoch of every query, so the
// bytes of every answer are a function of the seed alone.
type serveLive struct {
	spec    string
	n       uint64 // vertices of the base graph
	walPath string
	cfg     gts.Config

	srv     *service.Server
	httpSrv *http.Server
	base    string
	client  *http.Client

	epoch   uint64
	ingest  *request
	connA   []*request
	connB   []*request
	burst   []*request
	digests map[string]uint64 // answers of the current epoch, by query
	stats   []opStat
	stats0  service.Stats
	sharing service.SharingStats // summed over the measured rounds

	mirror *csr.Graph // base graph, generated on the pass that verifies against references
}

// Query sources are low vertex IDs: RMAT's skew makes those the
// well-connected vertices at every scale, so no traversal is trivially empty.
var (
	hotSources   = []uint64{0, 1, 2}
	hotPattern   = []int{0, 1, 0, 2, 0, 1} // zipf-shaped: 3, 2 and 1 requests
	incSource    = uint64(3)
	burstSources = []uint64{8, 9, 10, 11, 12, 13, 14, 15}
)

// request is one HTTP exchange slot, reused every round so that the load
// generator's own buffers do not count as the program's allocation.
type request struct {
	class  string // bfs_miss bfs_hit inc_bfs inc_cc ingest burst
	method string
	path   string
	body   []byte
	query  string // digest key, e.g. "bfs/3"; empty for ingest

	status int
	resp   *bytes.Buffer
	start  time.Time
	wall   time.Duration
	err    error
}

func newServeLive() workload { return &serveLive{} }

func runRequest(class, algo string, source uint64, incremental bool) *request {
	body := fmt.Sprintf(`{"source": %d, "incremental": %v}`, source, incremental)
	query := algo
	if algo == "bfs" {
		query = fmt.Sprintf("bfs/%d", source)
	}
	return &request{class: class, method: http.MethodPost, path: "/v1/graphs/live/" + algo,
		body: []byte(body), query: query, resp: new(bytes.Buffer)}
}

func (s *serveLive) setup(p *pass) error {
	d, shrink, err := parseSpec(p.o.graph())
	if err != nil {
		return err
	}
	s.spec, s.n = p.o.graph(), uint64(1)<<d.ProxyScale(shrink)

	// The WAL a crashed daemon left behind is state the deployment already
	// has on disk, so writing it is not part of recovery time.
	p.pauseSetup()
	s.walPath = filepath.Join(p.dir, "live.wal")
	if err := writeWAL(s.walPath, p.o.seed, 0, fixtureBatches, s.n); err != nil {
		return fmt.Errorf("WAL fixture: %w", err)
	}
	if fi, err := os.Stat(s.walPath); err == nil {
		p.layer["wal.bytes"] = float64(fi.Size()) / 1e3
	}
	ignored, err := applyKnobs(`{"ShareStreams": true}`, &s.cfg)
	if err != nil {
		return err
	}
	p.res.ConfigKeysIgnored = append(p.res.ConfigKeysIgnored, ignored...)
	p.resumeSetup()

	err = p.step("service.load", func(int) error {
		s.srv = service.New(service.Config{Incremental: true})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		s.httpSrv = &http.Server{Handler: s.srv.Handler()}
		go s.httpSrv.Serve(ln) // returns when close() closes the server
		s.base = "http://" + ln.Addr().String()
		s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
		return s.srv.LoadMutableGraph("live", s.spec, s.walPath, s.cfg, 2)
	})
	if err != nil {
		return err
	}
	s.epoch = fixtureBatches

	s.ingest = &request{class: "ingest", method: http.MethodPost, path: "/v1/graphs/live/ingest", resp: new(bytes.Buffer)}
	seen := make(map[int]bool)
	for _, rank := range hotPattern {
		class := "bfs_miss"
		if seen[rank] {
			class = "bfs_hit"
		}
		seen[rank] = true
		s.connA = append(s.connA, runRequest(class, "bfs", hotSources[rank], false))
	}
	s.connB = []*request{runRequest("inc_bfs", "bfs", incSource, true), runRequest("inc_cc", "cc", 0, true)}
	for _, src := range burstSources {
		r := runRequest("burst", "bfs", src, false)
		r.path += "?mode=async"
		s.burst = append(s.burst, r)
	}
	return nil
}

// writeWAL appends batches [from, from+count) of the seeded edge stream to
// a fresh log at path, one fsync each, the way live ingest wrote them.
func writeWAL(path string, seed int64, from, count int, n uint64) error {
	log, _, err := wal.Open(path, wal.Options{})
	if err != nil {
		return err
	}
	for i := from; i < from+count; i++ {
		if _, err := log.Append(walOps(seededBatch(seed, i, n))); err != nil {
			log.Close()
			return err
		}
	}
	return log.Close()
}

func walOps(ops []gts.EdgeOp) []wal.Op {
	out := make([]wal.Op, len(ops))
	for i, op := range ops {
		out[i] = wal.Op{Del: op.Del, Src: op.Src, Dst: op.Dst}
	}
	return out
}

// prepare encodes the round's ingest body: batch fixtureBatches is the
// warm-up's (i = -1), the measured rounds take the ones after it.
func (s *serveLive) prepare(p *pass, i int) error {
	type edge struct {
		Src uint64 `json:"src"`
		Dst uint64 `json:"dst"`
	}
	var body struct {
		Edges []edge `json:"edges"`
	}
	for _, op := range seededBatch(p.o.seed, fixtureBatches+1+i, s.n) {
		body.Edges = append(body.Edges, edge{op.Src, op.Dst})
	}
	var err error
	s.ingest.body, err = json.Marshal(body)
	s.digests = make(map[string]uint64)
	return err
}

// do performs one exchange and records its wall time. The body is read in
// full inside the timed region — a caller has the answer only then — and
// parsed outside it.
func (s *serveLive) do(p *pass, r *request, name string, parent, round int) {
	sp := p.tr.begin(name, parent, round)
	defer p.tr.end(sp)
	t0 := time.Now()
	r.status, r.err = 0, nil
	r.resp.Reset()
	req, err := http.NewRequest(r.method, s.base+r.path, bytes.NewReader(r.body))
	if err == nil {
		var resp *http.Response
		if resp, err = s.client.Do(req); err == nil {
			r.status = resp.StatusCode
			_, err = r.resp.ReadFrom(resp.Body)
			resp.Body.Close()
		}
	}
	r.err = err
	r.wall = time.Since(t0)
}

func (s *serveLive) round(p *pass, i, sp int) error {
	s.do(p, s.ingest, "http.ingest", sp, i)
	s.epoch++

	// Both phases run one goroutine per connection and end at a barrier.
	phase := func(name string, a, b func(parent int)) {
		id := p.tr.begin(name, sp, i)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); a(id) }()
		go func() { defer wg.Done(); b(id) }()
		wg.Wait()
		p.tr.end(id)
	}
	sequential := func(reqs []*request) func(int) {
		return func(parent int) {
			for _, r := range reqs {
				s.do(p, r, "http."+r.class, parent, i)
			}
		}
	}
	phase("phase.query", sequential(s.connA), sequential(s.connB))
	half := len(s.burst) / 2
	phase("phase.burst",
		func(parent int) { s.runBurst(p, s.burst[:half], parent, i) },
		func(parent int) { s.runBurst(p, s.burst[half:], parent, i) })
	return nil
}

// runBurst submits every job of one connection's share asynchronously, then
// polls each until it is done. A job's wall runs from its submission to the
// poll that returned its result.
func (s *serveLive) runBurst(p *pass, reqs []*request, parent, round int) {
	polls := make([]*request, len(reqs))
	for k, r := range reqs {
		start := time.Now()
		s.do(p, r, "http.burst_submit", parent, round)
		r.start = start
		var accepted struct {
			ID string `json:"id"`
		}
		if r.err == nil && r.status == http.StatusAccepted {
			r.err = json.Unmarshal(r.resp.Bytes(), &accepted)
		} else if r.err == nil {
			r.err = fmt.Errorf("async submit: status %d", r.status)
		}
		// A poll reads into the job's own buffer, so the slot ends up holding
		// the final status document.
		polls[k] = &request{method: http.MethodGet, path: "/v1/jobs/" + accepted.ID, resp: r.resp}
	}
	for k, r := range reqs {
		for r.err == nil {
			s.do(p, polls[k], "http.burst_poll", parent, round)
			r.status, r.err = polls[k].status, polls[k].err
			if r.err != nil || r.status != http.StatusOK || bytes.Contains(r.resp.Bytes(), []byte(`"state": "done"`)) {
				break
			}
			if !bytes.Contains(r.resp.Bytes(), []byte(`"state": "queued"`)) && !bytes.Contains(r.resp.Bytes(), []byte(`"state": "running"`)) {
				r.err = errors.New("async job failed")
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		r.wall = time.Since(r.start)
	}
}

func (s *serveLive) all() []*request {
	out := []*request{s.ingest}
	out = append(out, s.connA...)
	out = append(out, s.connB...)
	return append(out, s.burst...)
}

// check parses the round's answers outside the timed region. Every answer
// must carry the expected status, and all answers to one query within the
// epoch — computed, cached, incremental or coalesced — must be the same
// vector. On the verifying pass a full check also compares each vector
// with its internal/verify reference on a mirror of the epoch's graph.
func (s *serveLive) check(p *pass, full bool) ([]opStat, int, error) {
	failed := 0
	s.stats = s.stats[:0]
	// Every ingest republishes the graph with a fresh scheduler, so the
	// server's sharing counters cover the current epoch only — this round.
	sh := s.srv.Stats().Sharing
	s.sharing.WaveGroups += sh.WaveGroups
	s.sharing.GroupJobs += sh.GroupJobs
	s.sharing.SoloFallbacks += sh.SoloFallbacks
	s.sharing.Waves += sh.Waves
	s.sharing.PageCopies += sh.PageCopies
	s.sharing.BytesSaved += sh.BytesSaved
	var refs *epochRefs
	if full && p.o.last {
		var err error
		if refs, err = s.references(p); err != nil {
			return nil, 0, err
		}
	}
	for _, r := range s.all() {
		body := r.resp.Bytes()
		st := opStat{Op: "http." + r.class, WallMs: float64(r.wall) / 1e6, RespMB: float64(len(body)) / 1e6}
		s.stats = append(s.stats, st)
		cur := &s.stats[len(s.stats)-1]
		if r.err != nil || r.status != http.StatusOK {
			p.errorf("%s %s: status %d, err %v", r.class, r.path, r.status, r.err)
			failed++
			continue
		}
		if r.class == "ingest" {
			if e, ok := jsonNumber(body, "epoch", false); !ok || uint64(e) != s.epoch {
				p.errorf("ingest: epoch %v, want %d", e, s.epoch)
				failed++
			}
			continue
		}
		cur.Cached = bytes.Contains(body[:min(len(body), 512)], []byte(`"cached": true`))
		cur.JobMs, _ = jsonNumber(body, "latency_ms", false)
		cur.JobRunMs, _ = jsonNumber(body, "wall_ms", true)
		if virt, ok := jsonNumber(body, "virtual_seconds", true); ok && !cur.Cached {
			cur.VirtMs = virt * 1e3
		}
		key := "Levels"
		if r.query == "cc" {
			key = "Labels"
		}
		vec, ok := jsonIntArray(body, key)
		if !ok {
			p.errorf("%s %s: no %s vector in the answer", r.class, r.query, key)
			failed++
			continue
		}
		got := hashI32(vec)
		if want, seen := s.digests[r.query]; !seen {
			s.digests[r.query] = got
		} else if !p.expect(got, want) {
			p.errorf("%s %s: digest %016x differs from this epoch's %016x", r.class, r.query, got, want)
			failed++
			continue
		}
		if refs != nil {
			if err := checkEqual("value", vec, refs.vector(r.query)); err != nil {
				p.errorf("%s %s at epoch %d: %v", r.class, r.query, s.epoch, err)
				failed++
			}
		}
	}
	return s.stats, failed, nil
}

// epochRefs computes internal/verify references on the graph the server
// holds at one epoch: the base plus every batch committed so far.
type epochRefs struct {
	g    *csr.Graph
	memo map[string][]int32
}

func (s *serveLive) references(p *pass) (*epochRefs, error) {
	if s.mirror == nil {
		d, shrink, err := parseSpec(s.spec)
		if err != nil {
			return nil, err
		}
		if s.mirror, err = d.Generate(shrink); err != nil {
			return nil, err
		}
	}
	batches := make([][]gts.EdgeOp, s.epoch)
	for i := range batches {
		batches[i] = seededBatch(p.o.seed, i, s.n)
	}
	g, err := withBatches(s.mirror, batches...)
	return &epochRefs{g: g, memo: make(map[string][]int32)}, err
}

func (e *epochRefs) vector(query string) []int32 {
	if v, ok := e.memo[query]; ok {
		return v
	}
	var v []int32
	if query == "cc" {
		for _, l := range verify.WCC(e.g) {
			v = append(v, int32(l))
		}
	} else {
		src, _ := strconv.ParseUint(query[len("bfs/"):], 10, 64)
		for _, l := range refBFS(e.g, src) {
			v = append(v, int32(l))
		}
	}
	e.memo[query] = v
	return v
}

func (s *serveLive) beginMeasure(*pass) {
	s.stats0 = s.srv.Stats()
	s.sharing = service.SharingStats{}
}

func (s *serveLive) endMeasure(p *pass, rounds int) {
	if !p.o.trace {
		return
	}
	n := float64(rounds)
	st := s.srv.Stats()
	byClass := make(map[string][]opStat)
	respMB := 0.0
	for _, r := range p.res.Rounds {
		for _, o := range r.Ops {
			byClass[o.Op] = append(byClass[o.Op], o)
			respMB += o.RespMB
		}
	}
	p50 := func(class string, f func(opStat) float64) float64 {
		var xs []float64
		for _, o := range byClass["http."+class] {
			xs = append(xs, f(o))
		}
		return median(xs)
	}
	wallOf := func(o opStat) float64 { return o.WallMs }
	for _, class := range []string{"bfs_miss", "bfs_hit", "inc_bfs", "inc_cc", "ingest", "burst"} {
		p.layer["service.http_ms_p50."+class] = p50(class, wallOf)
	}
	p.layer["service.overhead_ms"] = p50("bfs_miss", func(o opStat) float64 { return o.WallMs - o.JobMs })
	p.layer["incremental.wall_ratio"] = ratio(
		p50("inc_bfs", func(o opStat) float64 { return o.JobRunMs }),
		p50("bfs_miss", func(o opStat) float64 { return o.JobRunMs }))
	p.layer["service.resp_mb_per_round"] = respMB / n
	p.layer["service.queue_wait_ms_p50"] = st.QueueWait.P50 * 1e3
	p.layer["service.run_wall_ms_p50"] = st.RunWall.P50 * 1e3
	hits, misses := float64(st.CacheHits-s.stats0.CacheHits), float64(st.CacheMisses-s.stats0.CacheMisses)
	p.layer["service.cache_hit_ratio"] = ratio(hits, hits+misses)
	p.layer["service.coalesced_per_round"] = float64(st.Coalesced-s.stats0.Coalesced) / n

	groups := float64(s.sharing.WaveGroups)
	p.layer["sched.groups_per_round"] = groups / n
	p.layer["sched.mean_group_size"] = ratio(float64(s.sharing.GroupJobs), groups)
	p.layer["sched.solo_fallbacks"] = float64(s.sharing.SoloFallbacks)
	p.layer["core.shared.waves"] = float64(s.sharing.Waves) / n
	p.layer["core.shared.page_copies"] = float64(s.sharing.PageCopies) / n
	p.layer["core.shared.bytes_saved_mb"] = float64(s.sharing.BytesSaved) / 1e6 / n

	p.layer["incremental.hits_per_round"] = float64(st.IncrementalHits-s.stats0.IncrementalHits) / n
	p.layer["incremental.fallbacks_per_round"] = float64(st.IncrementalFallbacks-s.stats0.IncrementalFallbacks) / n
	p.layer["incremental.saved_supersteps_per_round"] = float64(st.IncrementalSavedSupersteps-s.stats0.IncrementalSavedSupersteps) / n
	p.layer["incremental.retained_entries"] = float64(st.Retained["live"])

	w, w0 := st.WAL["live"], s.stats0.WAL["live"]
	appends := float64(w.Appends - w0.Appends)
	p.layer["wal.appended_kb_per_batch"] = ratio(float64(w.AppendedBytes-w0.AppendedBytes)/1e3, appends)
	p.layer["wal.fsyncs_per_batch"] = ratio(float64(w.Fsyncs-w0.Fsyncs), appends)
}

// finish runs the direct drivers of a traced pass and, on the run's last
// pass, the recovery check: close the server, reopen the same WAL, and the
// recovered graph must sit at the final epoch and answer the final epoch's
// BFS with the same vector.
func (s *serveLive) finish(p *pass) (int, error) {
	if p.o.trace {
		if err := s.directDrivers(p); err != nil {
			return 0, err
		}
	}
	if !p.o.last {
		return 0, nil
	}
	s.close()
	srv := service.New(service.Config{Incremental: true})
	defer srv.Close()
	if err := srv.LoadMutableGraph("live", s.spec, s.walPath, s.cfg, 2); err != nil {
		return 0, fmt.Errorf("reopen: %w", err)
	}
	p.res.Attempted++
	if h := srv.Health(); len(h) != 1 || h[0].Epoch != s.epoch || uint64(h[0].ReplayedBatches) != s.epoch {
		p.errorf("reopen: health %+v, want epoch %d with every batch replayed", h, s.epoch)
		return 1, nil
	}
	job, err := srv.Run(context.Background(), service.Request{Graph: "live", Algo: "bfs",
		Params: service.Params{Source: hotSources[0]}})
	if err != nil {
		return 0, fmt.Errorf("reopen: %w", err)
	}
	res, _ := job.Result()
	var vec []int32
	for _, l := range res.Output.(*gts.BFSResult).Levels {
		vec = append(vec, int32(l))
	}
	query := fmt.Sprintf("bfs/%d", hotSources[0])
	if got := hashI32(vec); !p.expect(got, s.digests[query]) {
		p.errorf("reopen: %s digest %016x, before the restart %016x", query, got, s.digests[query])
		return 1, nil
	}
	return 0, nil
}

// directDrivers replays the run's own batches through the public functions
// of the layers under an ingest — wal.Log.Append and Mutable.ApplyBatch —
// so that the HTTP ingest time can be split into log, apply and the rest.
func (s *serveLive) directDrivers(p *pass) error {
	sp := p.tr.begin("driver.wal_replay", p.root, -1)
	base, err := gts.Open(s.spec)
	if err != nil {
		return err
	}
	fixture := filepath.Join(p.dir, "replay.wal")
	if err := writeWAL(fixture, p.o.seed, 0, fixtureBatches, s.n); err != nil {
		return err
	}
	t0 := time.Now()
	log, batches, err := wal.Open(fixture, wal.Options{})
	if err != nil {
		return err
	}
	log.Close()
	mut := slottedpage.NewMutable(base)
	for _, b := range batches {
		ops := make([]gts.EdgeOp, len(b.Ops))
		for i, op := range b.Ops {
			ops[i] = gts.EdgeOp{Del: op.Del, Src: op.Src, Dst: op.Dst}
		}
		if _, err := mut.ApplyBatch(ops); err != nil {
			return err
		}
	}
	replay := float64(time.Since(t0)) / 1e6
	p.tr.end(sp)
	p.layer["wal.replay_ms"] = replay
	p.layer["wal.replay_ms_per_batch"] = replay / fixtureBatches

	const driven = 8
	sp = p.tr.begin("driver.apply_batch", p.root, -1)
	var apply []float64
	for i := 0; i < driven; i++ {
		t0 := time.Now()
		if _, err := mut.ApplyBatch(seededBatch(p.o.seed, fixtureBatches+i, s.n)); err != nil {
			return err
		}
		apply = append(apply, float64(time.Since(t0))/1e6)
	}
	p.tr.end(sp)

	sp = p.tr.begin("driver.wal_append", p.root, -1)
	log, _, err = wal.Open(filepath.Join(p.dir, "append.wal"), wal.Options{})
	if err != nil {
		return err
	}
	defer log.Close()
	var appendSync []float64
	for i := 0; i < driven; i++ {
		ops := walOps(seededBatch(p.o.seed, fixtureBatches+i, s.n))
		t0 := time.Now()
		if _, err := log.Append(ops); err != nil {
			return err
		}
		appendSync = append(appendSync, float64(time.Since(t0))/1e6)
	}
	p.tr.end(sp)
	p.layer["slottedpage.apply_batch_ms"] = median(apply)
	p.layer["wal.append_sync_ms"] = median(appendSync)
	p.layer["service.ingest_self_ms"] = p.layer["service.http_ms_p50.ingest"] - median(apply) - median(appendSync)
	return nil
}

func (s *serveLive) close() {
	if s.httpSrv != nil {
		s.httpSrv.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
}

// jsonNumber finds `"key": <number>` in an indented JSON document without
// decoding it — the answers carry a vector of |V| numbers the check hashes
// instead of materializing. last picks the final occurrence, which for the
// job document's own fields lies after the embedded result.
func jsonNumber(doc []byte, key string, last bool) (float64, bool) {
	pat := []byte(`"` + key + `": `)
	at := bytes.Index(doc, pat)
	if last {
		at = bytes.LastIndex(doc, pat)
	}
	if at < 0 {
		return 0, false
	}
	rest := doc[at+len(pat):]
	end := bytes.IndexAny(rest, ",\n}")
	if end < 0 {
		end = len(rest)
	}
	v, err := strconv.ParseFloat(string(bytes.TrimSpace(rest[:end])), 64)
	return v, err == nil
}

// jsonIntArray extracts the integer array at `"key": [` from an indented
// JSON document.
func jsonIntArray(doc []byte, key string) ([]int32, bool) {
	pat := []byte(`"` + key + `": [`)
	at := bytes.Index(doc, pat)
	if at < 0 {
		return nil, false
	}
	var out []int32
	neg, in := false, false
	v := int32(0)
	for _, c := range doc[at+len(pat):] {
		switch {
		case c >= '0' && c <= '9':
			v, in = v*10+int32(c-'0'), true
		case c == '-':
			neg = true
		default:
			if in {
				if neg {
					v = -v
				}
				out = append(out, v)
			}
			v, neg, in = 0, false, false
			if c == ']' {
				return out, true
			}
		}
	}
	return nil, false
}
