package trace

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/sim"
)

// sampleRecorder builds a small hierarchical trace covering every span
// shape the exporter must handle: framework spans (GPU -1), device-level
// spans (stream -1), stream spans, and zero-duration markers.
func sampleRecorder() *Recorder {
	r := NewWithID("test-trace-01")
	r.Add(Span{GPU: 0, Stream: -1, Kind: CopyWA, Page: -1, Level: -1, Start: 0, End: 2 * sim.Microsecond})
	r.Add(Span{GPU: 0, Stream: 0, Kind: CopyPage, Page: 3, Level: 0, Start: 2 * sim.Microsecond, End: 5 * sim.Microsecond})
	r.Add(Span{GPU: 0, Stream: 0, Kind: Kernel, Page: 3, Level: 0, Start: 5 * sim.Microsecond, End: 9 * sim.Microsecond})
	r.Add(Span{GPU: 1, Stream: 2, Kind: StorageIO, Page: 7, Level: 1, Start: 4 * sim.Microsecond, End: 6 * sim.Microsecond})
	r.Add(Span{GPU: 1, Stream: 2, Kind: Fault, Page: 7, Level: 1, Start: 6 * sim.Microsecond, End: 6 * sim.Microsecond})
	r.Add(Span{GPU: 1, Stream: 2, Kind: Retry, Page: 7, Level: 1, Start: 6 * sim.Microsecond, End: 6 * sim.Microsecond})
	r.Add(Span{GPU: 0, Stream: -1, Kind: Sync, Page: -1, Level: 1, Start: 9 * sim.Microsecond, End: 10 * sim.Microsecond})
	r.Add(Span{GPU: -1, Stream: -1, Kind: Superstep, Page: -1, Level: 0, Start: 2 * sim.Microsecond, End: 9 * sim.Microsecond})
	r.Add(Span{GPU: -1, Stream: -1, Kind: Run, Page: -1, Level: -1, Start: 0, End: 10 * sim.Microsecond})
	return r
}

func sameSpans(t *testing.T, got, want *Recorder) {
	t.Helper()
	if got.ID() != want.ID() {
		t.Errorf("trace ID = %q, want %q", got.ID(), want.ID())
	}
	gs, ws := got.Spans(), want.Spans()
	if len(gs) != len(ws) {
		t.Fatalf("span count = %d, want %d", len(gs), len(ws))
	}
	for i := range gs {
		if gs[i] != ws[i] {
			t.Errorf("span %d = %+v, want %+v", i, gs[i], ws[i])
		}
	}
}

func TestChromeRoundTrip(t *testing.T) {
	r := sampleRecorder()
	var buf bytes.Buffer
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sameSpans(t, back, r)
}

// TestChromeIsValidJSON asserts the hand-written exporter emits a
// well-formed trace_event document: a JSON object with a traceEvents
// array, metadata naming every track, X events with microsecond ts/dur,
// and instant events for the zero-duration markers.
func TestChromeIsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleRecorder().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		OtherData   map[string]any   `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exporter produced invalid JSON: %v\n%s", err, buf.String())
	}
	if doc.OtherData["traceId"] != "test-trace-01" {
		t.Errorf("traceId = %v", doc.OtherData["traceId"])
	}
	var meta, complete, instant int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "M":
			meta++
		case "X":
			complete++
			if _, ok := ev["dur"].(float64); !ok {
				t.Errorf("X event without dur: %v", ev)
			}
		case "i":
			instant++
			if ev["s"] != "t" {
				t.Errorf("instant event without thread scope: %v", ev)
			}
		default:
			t.Errorf("unexpected phase %v", ev["ph"])
		}
	}
	if complete != 7 || instant != 2 {
		t.Errorf("events = %d complete + %d instant, want 7 + 2", complete, instant)
	}
	if meta == 0 {
		t.Error("no process/thread metadata emitted")
	}
	// The kernel span: ts 5us dur 4us on gpu0/stream0 (pid 1, tid 1).
	found := false
	for _, ev := range doc.TraceEvents {
		if ev["name"] == "kernel" && ev["pid"] == 1.0 && ev["tid"] == 1.0 {
			found = true
			if ev["ts"] != 5.0 || ev["dur"] != 4.0 {
				t.Errorf("kernel ts/dur = %v/%v, want 5/4", ev["ts"], ev["dur"])
			}
		}
	}
	if !found {
		t.Error("kernel event missing from gpu0/stream0 track")
	}
}

// TestExportDeterminism: the same spans export to byte-identical files,
// the property the golden-trace suite in internal/core leans on.
func TestExportDeterminism(t *testing.T) {
	var a, b bytes.Buffer
	r := sampleRecorder()
	if err := r.WriteChrome(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("Chrome export is not deterministic")
	}
}

// TestConcurrentExport runs exports against concurrent Adds — the "export a
// trace mid-fault" guarantee, checked under -race by the `make test-race`
// lane.
func TestConcurrentExport(t *testing.T) {
	r := NewWithID("race")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Add(Span{GPU: g, Stream: i % 4, Kind: Kind(i % NumKinds), Start: sim.Time(i), End: sim.Time(i + 1)})
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := 0; i < 20; i++ {
				buf.Reset()
				_ = r.WriteChrome(&buf)
			}
		}()
	}
	wg.Wait()
	if r.Len() != 800 {
		t.Errorf("lost spans under concurrency: %d", r.Len())
	}
}

// TestParseRejectsGarbage: Parse takes only a Chrome trace_event document.
// An empty object and the retired one-span-per-line format are errors, not
// empty timelines.
func TestParseRejectsGarbage(t *testing.T) {
	for _, in := range []string{"", "not json", "{\"foo\": 1}\n{\"bar\": 2}", "{}",
		"{\"format\":\"gts-trace/1\",\"trace_id\":\"t\"}\n" +
			"{\"kind\":\"kernel\",\"gpu\":0,\"stream\":0,\"page\":3,\"level\":0,\"start\":5000,\"end\":9000}\n",
		"{\"kind\":\"kernel\",\"gpu\":0,\"stream\":0,\"page\":3,\"level\":0,\"start\":5000,\"end\":9000}",
	} {
		if _, err := Parse([]byte(in)); err == nil {
			t.Errorf("Parse(%q) succeeded", in)
		}
	}
}

func TestUsecFormatting(t *testing.T) {
	cases := map[sim.Time]string{
		0:                      "0.000",
		1:                      "0.001",
		999:                    "0.999",
		1000:                   "1.000",
		12345678:               "12345.678",
		5 * sim.Microsecond:    "5.000",
		-3*sim.Microsecond - 1: "-3.001",
	}
	for in, want := range cases {
		if got := usec(in); got != want {
			t.Errorf("usec(%d) = %q, want %q", int64(in), got, want)
		}
	}
}
