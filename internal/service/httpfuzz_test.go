package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	gts "repro"
	"repro/internal/graphgen"
)

// fuzzSpec is the graph FuzzHTTPRequests serves and the spec it pins load
// bodies to.
const fuzzSpec = "RMAT27@16"

// FuzzHTTPRequests drives the HTTP surface with fuzzer-chosen requests over
// a mutable graph: a run (any algorithm path segment, any ?timeout= and
// ?mode=, any body), an ingest batch, or a graph load. Whatever arrives, the
// server must not panic, must not answer 5xx — but 504 for a request whose
// own deadline expired — and must answer 2xx with valid JSON.
//
// The harness keeps inputs that are legal but would let one iteration
// allocate gigabytes, read arbitrary files or never finish out of the
// server: a load body's spec is pinned to fuzzSpec unless Open would refuse
// it without generating or reading anything, and its wal is dropped (its
// gpus, devices and pool bytes need no cap: NewSystem refuses a machine no
// run could use); an ingest endpoint in [2^16, the graph's addressable
// capacity) skips the input (a larger one is refused before anything grows);
// so does a run of more than 64 iterations.
func FuzzHTTPRequests(f *testing.F) {
	f.Add(uint8(0), "radius", "", "", []byte(`{"sketches":1099511627776}`))
	f.Add(uint8(0), "pagerank", "", "", []byte(`{"damping":1e308}`))
	f.Add(uint8(0), "bfs", "5s", "async", []byte(`{"source":3,"incremental":true}`))
	f.Add(uint8(0), "cc", "banana", "", []byte(`{"incremental":true}`))
	f.Add(uint8(0), "ball", "", "", []byte(`{"source":1099511627776,"hops":3}`))
	f.Add(uint8(1), "", "", "", []byte(`{"edges":[{"src":0,"dst":18446744073709551615}]}`))
	f.Add(uint8(1), "", "", "", []byte(`{"edges":[{"src":1,"dst":2},{"src":3,"dst":4,"del":true}]}`))
	for _, body := range []string{
		`{"spec":"NotADataset"}`, `{"spec":"RMAT27@x"}`, `{"spec":"RMAT27@16","streams":99}`,
		`{"spec":"RMAT27@16","gpus":-1}`, `{"spec":"RMAT27@16","strategy":"s","gpus":2}`,
		`{"spec":"RMAT27@16","storage":"tape"}`, `{"spec":"RMAT27@16","storage":"ssd","pool_bytes":1099511627776}`,
		`{"spec":"RMAT27@16","gpus":1048576}`,
	} {
		f.Add(uint8(2), "", "", "", []byte(body))
	}

	srv := New(Config{Workers: 2, QueueDepth: 8, Incremental: true})
	f.Cleanup(func() { srv.Close() })
	if err := srv.LoadMutableGraph("g", fuzzSpec, filepath.Join(f.TempDir(), "g.wal"), gts.Config{}, 0); err != nil {
		f.Fatal(err)
	}
	capacity := srv.graphs["g"].sys.Graph().Config().MaxAddressableVertices()
	h := srv.Handler()

	f.Fuzz(func(t *testing.T, route uint8, seg, timeout, mode string, body []byte) {
		var method, path string
		switch route % 3 {
		case 0:
			method, path = http.MethodPost, "/v1/graphs/g/"+url.PathEscape(seg)+"?timeout="+url.QueryEscape(timeout)+"&mode="+url.QueryEscape(mode)
			var p Params
			if json.NewDecoder(bytes.NewReader(body)).Decode(&p) == nil && p.Iterations > 64 {
				t.Skip("a run this long is legal but slow")
			}
			if seg == "ingest" {
				route = 1 // the run path names the ingest route: its limits apply
			}
		case 1:
			method, path = http.MethodPost, "/v1/graphs/g/ingest"
		default:
			method, path = http.MethodPut, "/v1/graphs/x"
			var doc LoadRequest
			if json.NewDecoder(bytes.NewReader(body)).Decode(&doc) == nil {
				doc.Spec, doc.WAL = pinSpec(doc.Spec), ""
				body, _ = json.Marshal(doc)
			}
		}
		if route%3 == 1 {
			var req ingestRequest
			if json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil {
				for _, e := range req.Edges {
					if max(e.Src, e.Dst) >= 1<<16 && max(e.Src, e.Dst) < capacity {
						t.Skip("an endpoint this far out is legal but grows the graph to gigabytes")
					}
				}
			}
		}

		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		d, err := time.ParseDuration(timeout)
		expired := route%3 == 0 && rec.Code == http.StatusGatewayTimeout && err == nil && d > 0
		if rec.Code >= 500 && !expired {
			t.Fatalf("%s %s %q = %d: %s", method, path, body, rec.Code, rec.Body)
		}
		if rec.Code < 300 && !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("%s %s %q = %d with a body that is not JSON: %q", method, path, body, rec.Code, rec.Body)
		}
	})
}

// pinSpec returns spec when Open refuses it before generating or reading
// anything — empty, a bad shrink, no registry dataset — and fuzzSpec for
// anything that names a file or a dataset.
func pinSpec(spec string) string {
	if spec == "" {
		return spec
	}
	if _, err := os.Stat(spec); err == nil || strings.HasSuffix(spec, ".gts") {
		return fuzzSpec
	}
	dataset := spec
	if at := strings.LastIndexByte(spec, '@'); at >= 0 {
		if n, err := strconv.Atoi(spec[at+1:]); err != nil || n < 0 {
			return spec
		}
		dataset = spec[:at]
	}
	if _, ok := graphgen.ByName(dataset); !ok {
		return spec
	}
	return fuzzSpec
}
