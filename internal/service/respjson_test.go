package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	gts "repro"
)

// referenceJobJSON is the job document as gtsd wrote it before
// appendJobJSON: the whole result through json.Encoder with SetIndent. It is
// the oracle every test here compares against.
func referenceJobJSON(t testing.TB, job *Job) ([]byte, error) {
	t.Helper()
	req := job.Request()
	doc := map[string]any{
		"id":     job.ID(),
		"graph":  req.Graph,
		"algo":   req.Algo,
		"params": req.Params,
		"state":  job.State().String(),
	}
	res, err := job.Result()
	if err != nil {
		doc["error"] = err.Error()
	}
	if res != nil {
		doc["cached"] = job.Cached()
		doc["latency_ms"] = float64(job.Latency().Microseconds()) / 1000
		doc["wall_ms"] = float64(res.Wall.Microseconds()) / 1000
		doc["virtual_seconds"] = res.Metrics.Elapsed.Seconds()
		doc["mteps"] = res.Metrics.MTEPS
		doc["result"] = res.Output
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err = enc.Encode(doc)
	return buf.Bytes(), err
}

// serveOK drives one request through h and returns the body of its 200.
func serveOK(t *testing.T, h http.Handler, method, url, body string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, url, strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s %s: status %d: %s", method, url, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// stubJob is an unfinished job as Submit would have built it.
func stubJob(graph, algo string, p Params) *Job {
	return &Job{
		id:        "job-000042",
		req:       Request{Graph: graph, Algo: algo, Params: p},
		submitted: time.Unix(1_700_000_000, 0),
		done:      make(chan struct{}),
	}
}

// doneJob is a job finished with res after 1.234567 ms.
func doneJob(res *Result, cached bool) *Job {
	j := stubJob(res.Graph, res.Algo, res.Params)
	j.complete(res, cached, j.submitted.Add(1234567*time.Nanosecond))
	return j
}

// bfsJob is a finished BFS job over n vertices with plausible levels.
func bfsJob(n int) *Job {
	levels := make([]int16, n)
	for i := range levels {
		levels[i] = int16(i%9) - 1
	}
	out := &gts.BFSResult{Levels: levels}
	out.Metrics.Levels = 8
	out.LevelPages = []int64{1, 5, 40, 90, 12, 3, 1, 1}
	out.LevelBytes = []int64{65536, 327680, 2621440, 5898240, 786432, 196608, 65536, 65536}
	return doneJob(&Result{Graph: "g", Algo: "bfs", Metrics: out.Metrics, Output: out, Wall: 3 * time.Millisecond}, false)
}

func checkSameBytes(t *testing.T, name string, job *Job) {
	t.Helper()
	want, err := referenceJobJSON(t, job)
	if err != nil {
		t.Fatalf("%s: reference encoder: %v", name, err)
	}
	// A dirty prefix proves the encoder appends and never reads dst.
	got, err := appendJobJSON([]byte("xx"), job)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !bytes.Equal(got[2:], want) {
		t.Errorf("%s: job document differs from json.Encoder's\n got %s\nwant %s", name, got[2:], want)
	}
}

// Result structs no algorithm returns, for the fields liftVectors must leave
// to encoding/json.
type (
	level      int16
	oddVectors struct {
		gts.Metrics
		Tagged  []int32 `json:"tagged"`
		Omitted []int32 `json:",omitempty"`
		Named   []level
		Strings []string
		Nested  [][]int32
		Bytes   []byte
		hidden  []int32
		Plain   []int32
		Ptr     *[]int32
	}
	noVectors struct{ A, B int }
)

func TestJobJSONMatchesEncoder(t *testing.T) {
	// Every public result struct, every field distinct.
	for name, out := range resultStructs() {
		res := &Result{Output: out}
		n := 0
		fillDistinct(reflect.ValueOf(res).Elem(), &n)
		checkSameBytes(t, name+"/miss", doneJob(res, false))
		checkSameBytes(t, name+"/cached", doneJob(res, true))
	}

	// Nil, empty and one-element vectors of every element kind.
	checkSameBytes(t, "nil vectors", doneJob(&Result{Output: &gts.DegreeResult{}}, false))
	for name, out := range map[string]any{
		"int16":    &gts.BFSResult{Levels: []int16{}},
		"int16/1":  &gts.BFSResult{Levels: []int16{math.MinInt16}},
		"int32":    &gts.DegreeResult{Degrees: []int32{}, Histogram: nil},
		"int32/1":  &gts.DegreeResult{Degrees: []int32{math.MinInt32}, Histogram: []int64{}},
		"int64/1":  &gts.DegreeResult{Degrees: nil, Histogram: []int64{math.MinInt64}},
		"uint32":   &gts.CCResult{Labels: []uint32{}},
		"uint32/1": &gts.CCResult{Labels: []uint32{math.MaxUint32}},
		"f32":      &gts.PageRankResult{Ranks: []float32{}},
		"f32/1":    &gts.SSSPResult{Dist: []float32{math.MaxFloat32}},
		"f64":      &gts.BCResult{Scores: []float64{}},
		"f64/1":    &gts.BCResult{Scores: []float64{1e-7}},
		"bool":     &gts.KCoreResult{InCore: []bool{}},
		"bool/2":   &gts.KCoreResult{InCore: []bool{false, true}},
		"radius":   &gts.RadiusResult{Radii: []int32{3, 0, -1}, EffectiveDiameter: 4},
		"scalar":   &gts.CrossEdgesResult{Total: 77},
	} {
		checkSameBytes(t, name, doneJob(&Result{Graph: "g", Algo: name, Output: out}, false))
	}

	// BFSResult.Levels shadows the embedded Metrics.Levels, which
	// encoding/json drops; the omitempty metrics present and absent.
	bfs := &gts.BFSResult{Levels: []int16{0, 1, -1}}
	bfs.Metrics.Levels = 2
	checkSameBytes(t, "shadowed Levels, omitempty absent", doneJob(&Result{Output: bfs}, false))
	bfs.LevelDirs = []string{"push", "pull"}
	bfs.PoolHits, bfs.PoolLoads, bfs.PoolWaits = 9, 8, 7
	checkSameBytes(t, "shadowed Levels, omitempty present", doneJob(&Result{Metrics: bfs.Metrics, Output: bfs}, false))

	// Strings that look like the document's own structure arrive escaped.
	evil := "\n  \"result\": {\n    \"Levels\": null<&>"
	checkSameBytes(t, "hostile names", doneJob(&Result{Graph: evil, Algo: evil, Output: bfs}, true))

	// Jobs without a result, and outputs that are not a struct with vectors.
	checkSameBytes(t, "queued", stubJob("g", "bfs", Params{Source: 3}))
	running := stubJob("g", "bfs", Params{})
	running.setRunning()
	checkSameBytes(t, "running", running)
	failed := stubJob(evil, "bfs", Params{})
	failed.fail(errors.New("boom: "+evil), JobFailed)
	checkSameBytes(t, "failed", failed)
	timedOut := stubJob("g", "cc", Params{})
	timedOut.fail(ErrTimeout, JobTimedOut)
	checkSameBytes(t, "timed out", timedOut)
	for name, out := range map[string]any{
		"nil output":    nil,
		"nil pointer":   (*gts.BFSResult)(nil),
		"struct value":  gts.BFSResult{Levels: []int16{1, 2}},
		"map":           map[string][]int32{"Levels": {1, 2}},
		"no vectors":    &noVectors{1, 2},
		"empty struct":  &struct{}{},
		"only a vector": &struct{ V []int64 }{[]int64{1, 2, 3}},
		"odd vectors": &oddVectors{
			Tagged: []int32{1}, Omitted: []int32{}, Named: []level{2}, Strings: []string{"a"},
			Nested: [][]int32{{3}}, Bytes: []byte("hi"), hidden: []int32{4}, Plain: []int32{5, 6}, Ptr: &[]int32{7},
		},
	} {
		checkSameBytes(t, name, doneJob(&Result{Output: out}, false))
	}

	// The caller's result is shared with the cache: encoding must not touch it.
	checkSameBytes(t, "shadowed Levels again", doneJob(&Result{Output: bfs}, false))
	if len(bfs.Levels) != 3 {
		t.Errorf("encoding a job cleared its result's Levels: %v", bfs.Levels)
	}
}

// bfsBodySHA256 is the SHA-256 of the body gtsd answered POST
// /v1/graphs/social/bfs {"source":1} with on RMAT27@16 at the commit before
// appendJobJSON existed, with the two wall-clock fields zeroed and the one
// line holding the metrics' host worker count removed (the field went with
// the host-parallel kernel path; that commit's hash was 316906b1…114bd).
// The encoder's contract is that this never moves for a given result. The
// result moved once, when bfs began to run the direction-optimizing kernel
// (plain-kernel body: 12e04339…bea22); the encoder of the commit before that
// hashed the direction-optimizing body to the value below.
const bfsBodySHA256 = "43a1e53356ceb602bb45ceb83ce2bdef3705f9bdca7adf72b81ea795fc808ac2"

func TestHTTPJobBodyGolden(t *testing.T) {
	g, err := gts.Open("RMAT27@16")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := gts.NewSystem(g, gts.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{})
	defer srv.Close()
	if err := srv.AddGraph("social", sys); err != nil {
		t.Fatal(err)
	}
	wallClock := regexp.MustCompile(`"(latency_ms|wall_ms)": [0-9.e+-]+`)
	fetch := func(method, url, body string) []byte {
		t.Helper()
		return wallClock.ReplaceAll(serveOK(t, srv.Handler(), method, url, body), []byte(`"$1": 0`))
	}
	miss := fetch("POST", "/v1/graphs/social/bfs", `{"source":1}`)
	sum := sha256.Sum256(miss)
	if got := hex.EncodeToString(sum[:]); got != bfsBodySHA256 {
		t.Errorf("BFS response body (%d bytes) hashes to %s, want %s", len(miss), got, bfsBodySHA256)
	}
	// The poll of the same job is the same document, byte for byte.
	if poll := fetch("GET", "/v1/jobs/job-000001", ""); !bytes.Equal(poll, miss) {
		t.Errorf("GET /v1/jobs/job-000001 differs from the POST's answer")
	}
}

// TestDocumentsCarryContentLength: a job answer and an error document go out
// whole, with a Content-Length equal to the body and no chunked framing.
func TestDocumentsCarryContentLength(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/job" {
			writeJob(w, servedBFSJob(1<<16))
			return
		}
		httpError(w, http.StatusNotFound, ErrUnknownJob)
	}))
	defer ts.Close()
	for _, path := range []string{"/job", "/missing"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %d, Transfer-Encoding %v for a %d-byte body; want the body's length and no chunking",
				path, resp.ContentLength, resp.TransferEncoding, len(body))
		}
	}
}

// vectorOf builds the two-element vector of element kind kind%7 whose
// elements carry bits, truncated to the element's width.
func vectorOf(kind uint8, bits uint64) any {
	switch kind % 7 {
	case 0:
		return []int16{int16(bits), int16(bits >> 16)}
	case 1:
		return []int32{int32(bits), int32(bits >> 32)}
	case 2:
		return []int64{int64(bits), -int64(bits)}
	case 3:
		return []uint32{uint32(bits), uint32(bits >> 32)}
	case 4:
		return []bool{bits&1 != 0, bits&2 != 0}
	case 5:
		return []float32{math.Float32frombits(uint32(bits)), math.Float32frombits(uint32(bits >> 32))}
	default:
		return []float64{math.Float64frombits(bits), -math.Float64frombits(bits)}
	}
}

// FuzzVectorJSON checks appendVector against encoding/json on arbitrary
// element bits of every element kind: the same bytes, or both refuse.
func FuzzVectorJSON(f *testing.F) {
	f32 := func(lo, hi float32) uint64 {
		return uint64(math.Float32bits(hi))<<32 | uint64(math.Float32bits(lo))
	}
	for kind := uint8(0); kind < 5; kind++ {
		for _, bits := range []uint64{0, 1, 1<<15 - 1, 1 << 15, 1<<31 - 1, 1 << 31, 1<<63 - 1, 1 << 63, math.MaxUint64} {
			f.Add(kind, bits)
		}
	}
	// The edges of appendInts' cell table, of its digit count and pairs, and
	// of each integer type, paired with their neighbours on the list.
	pack := func(kind uint8, a, b int64) uint64 {
		switch kind {
		case 0:
			return uint64(uint16(a)) | uint64(uint16(b))<<16
		case 2:
			return uint64(a)
		}
		return uint64(uint32(a)) | uint64(uint32(b))<<32
	}
	for kind, edges := range [][]int64{
		{math.MinInt16, -1000, -101, -100, -2, -1, 0, 9, 10, 99, 100, 101, 999, 1000, 9999, 10000, math.MaxInt16},
		{math.MinInt32, -2, -1, 0, 9, 10, 99, 100, 12345, 999999999, 1000000000, math.MaxInt32},
		{math.MinInt64, -2, -1, 0, 9, 10, 99, 100, 1e18 - 1, 1e18, math.MaxInt64},
		{0, 9, 10, 99, 100, 1000, 65535, 65536, math.MaxUint32},
	} {
		for i := range edges {
			f.Add(uint8(kind), pack(uint8(kind), edges[i], edges[(i+1)%len(edges)]))
		}
	}
	negZero := float32(math.Copysign(0, -1))
	for _, bits := range []uint64{
		f32(0, negZero), f32(1e-7, 1e-6), f32(9.999999e-7, 1.0000001e-6), f32(1e21, 9.999999e20),
		f32(math.MaxFloat32, math.SmallestNonzeroFloat32), f32(0.1, 16777216), f32(1e-10, 1e10),
		f32(float32(math.NaN()), 1), f32(1, float32(math.Inf(-1))),
	} {
		f.Add(uint8(5), bits)
	}
	for _, x := range []float64{
		0, 1e-7, 1e-6, 9.999999999999999e-7, 1e21, 9.999999999999999e20, 1e-9, 1e-10, 1e100,
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.MaxFloat32, 0.1, 1 << 53, math.NaN(), math.Inf(1),
	} {
		f.Add(uint8(6), math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, kind uint8, bits uint64) {
		v := vectorOf(kind, bits)
		// A vector sits at depth 2 of the job document: MarshalIndent's
		// prefix puts encoding/json's rendering at the same depth.
		want, wantErr := json.MarshalIndent(v, "    ", "  ")
		got, err := appendVector(nil, v)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%T %v: appendVector error %v, encoding/json error %v", v, v, err, wantErr)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("%T %v:\n got %s\nwant %s", v, v, got, want)
		}
	})
}

func TestUnencodableResultIs500(t *testing.T) {
	nan := float32(math.NaN())
	for name, out := range map[string]any{
		"NaN in a lifted vector":    &gts.PageRankResult{Ranks: []float32{0.5, nan}},
		"-Inf in a lifted vector":   &gts.BCResult{Scores: []float64{math.Inf(-1)}},
		"NaN left to encoding/json": &struct{ X float64 }{math.NaN()},
	} {
		rec := httptest.NewRecorder()
		writeJob(rec, doneJob(&Result{Graph: "g", Algo: "pagerank", Output: out}, false))
		var doc struct {
			Error  string
			Status int
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("%s: body is not one JSON document (%v): %s", name, err, rec.Body)
		}
		if rec.Code != http.StatusInternalServerError || doc.Status != rec.Code || !strings.Contains(doc.Error, "unsupported value") {
			t.Errorf("%s: status %d, document %+v; want a 500 error document naming the unsupported value", name, rec.Code, doc)
		}
		if strings.Contains(rec.Body.String(), "0.5") || strings.Contains(rec.Body.String(), `"result"`) {
			t.Errorf("%s: the failed body leaked into the answer: %s", name, rec.Body)
		}
	}

	// The small documents take the same order: marshal, then the header.
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]any{"x": math.Inf(1)})
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "unsupported value") {
		t.Errorf("writeJSON of +Inf: status %d, body %s", rec.Code, rec.Body)
	}
}

// discard is the cheapest http.ResponseWriter: what is left in a
// measurement is the encoder's own cost.
type discard struct{ h http.Header }

func (d discard) Header() http.Header         { return d.h }
func (d discard) WriteHeader(int)             {}
func (d discard) Write(b []byte) (int, error) { return len(b), nil }

// TestJobResponseAllocBudget holds the job response to the cost of its small
// document: before appendJobJSON a 65 536-level BFS answer (0.6 MB on the
// wire) allocated ≈ 3 MB.
func TestJobResponseAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation perturbs allocation counts, and sync.Pool drops Puts at random")
	}
	// A collection mid-measurement would empty the pool, and a move to
	// another P would miss it; either bills a refill to the run.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	job, w := bfsJob(1<<16), discard{http.Header{}}
	writeJob(w, job) // warm the pool
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	objects := testing.AllocsPerRun(runs, func() { writeJob(w, job) })
	runtime.ReadMemStats(&after)
	// AllocsPerRun calls once more to warm up.
	perRun := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	if objects > 60 || perRun > 64<<10 {
		t.Errorf("a warm job response allocates %.0f objects and %d bytes, want <= 60 and <= %d", objects, perRun, 64<<10)
	}

	// An answer over maxPooledResp is served and its buffer let go.
	big := bfsJob(maxPooledResp / 8)
	doc, err := appendJobJSON(nil, big)
	if err != nil || len(doc) <= maxPooledResp {
		t.Fatalf("the outsized job encodes to %d bytes (%v), want over %d", len(doc), err, maxPooledResp)
	}
	writeJob(w, big)
	if buf := respBufs.Get().(*[]byte); cap(*buf) > maxPooledResp {
		t.Errorf("the pool kept a %d-byte buffer, over its %d-byte bound", cap(*buf), maxPooledResp)
	}
}

// servedBFSJob is a finished BFS job over n vertices shaped like what gtsd
// serves on an R-MAT graph: half the vertices unreached, the rest at levels
// 1-6, in no order a branch predictor could learn.
func servedBFSJob(n int) *Job {
	r := rand.New(rand.NewSource(1))
	levels := make([]int16, n)
	for i := range levels {
		levels[i] = -1
		if r.Intn(2) == 0 {
			levels[i] = int16(1 + r.Intn(6))
		}
	}
	levels[0] = 0
	out := &gts.BFSResult{Levels: levels}
	return doneJob(&Result{Graph: "g", Algo: "bfs", Output: out, Wall: 3 * time.Millisecond}, false)
}

// ccJob is a finished CC job over n vertices shaped like gtsd's answer on an
// R-MAT graph: one giant component labeled 0 and, at random, half the
// vertices isolated, each keeping its own ID as its label.
func ccJob(n int) *Job {
	r := rand.New(rand.NewSource(1))
	labels := make([]uint32, n)
	for i := range labels {
		if r.Intn(2) == 0 {
			labels[i] = uint32(i)
		}
	}
	out := &gts.CCResult{Labels: labels}
	return doneJob(&Result{Graph: "g", Algo: "cc", Output: out, Wall: 3 * time.Millisecond}, false)
}

// BenchmarkJobResponse times one finished-job answer (a miss, a hit and a
// poll all take this path) over 65 536 vertices: the served shapes of a BFS
// and a CC answer, and bfsJob's periodic levels, whose pattern a branch
// predictor learns.
func BenchmarkJobResponse(b *testing.B) {
	for _, bc := range []struct {
		name string
		job  *Job
	}{
		{"bfs", servedBFSJob(1 << 16)},
		{"cc", ccJob(1 << 16)},
		{"periodic", bfsJob(1 << 16)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			w := discard{http.Header{}}
			doc, err := appendJobJSON(nil, bc.job)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(doc)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				writeJob(w, bc.job)
			}
		})
	}
}
