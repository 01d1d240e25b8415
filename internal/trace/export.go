package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/sim"
)

// This file is the trace export/import layer, in one format: Chrome
// trace_event JSON (WriteChrome), a single JSON object whose traceEvents
// array chrome://tracing and Perfetto load directly. The run/superstep
// hierarchy lands on pid 0 ("gts framework"), each GPU becomes a process
// (pid = gpu+1) and each stream a thread (tid = stream+1, tid 0 being the
// device-level "engine" track), so the viewer nests copies under kernels
// under supersteps visually. The writer emits one event per line, in span
// insertion order with hand-formatted fields, so a deterministic simulation
// exports byte-identical files across runs. Parse reads it back into a
// Recorder.

// jstr renders s as a JSON string literal.
func jstr(s string) string {
	b, err := json.Marshal(s)
	if err != nil { // cannot happen for a string
		return `""`
	}
	return string(b)
}

// usec renders a virtual-time instant or duration as the microsecond
// decimal Chrome's ts/dur fields expect, without float formatting so the
// output is byte-stable ("12.345", three digits of sub-microsecond).
func usec(t sim.Time) string {
	neg := ""
	if t < 0 {
		neg, t = "-", -t
	}
	return fmt.Sprintf("%s%d.%03d", neg, int64(t)/1000, int64(t)%1000)
}

// snapshot copies the recorder state under the lock.
func (r *Recorder) snapshot() (string, []Span) {
	if r == nil {
		return "", nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	return r.id, out
}

// track maps a span to its Chrome (pid, tid) coordinates: the framework
// spans (GPU -1) live on pid 0, GPU i becomes pid i+1, stream -1 the
// device-level "engine" thread (tid 0) and stream s thread tid s+1.
func track(s Span) (pid, tid int) { return s.GPU + 1, s.Stream + 1 }

// WriteChrome writes the Chrome trace_event JSON form: metadata events
// naming every process/thread in use, then one complete ("X") event per
// span — zero-duration spans (fault/retry markers) become instant ("i")
// events so viewers render them as notches instead of invisible bars.
func (r *Recorder) WriteChrome(w io.Writer) error {
	id, spans := r.snapshot()
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "{\"otherData\":{\"traceId\":%s},\"displayTimeUnit\":\"ms\",\"traceEvents\":[", jstr(id)); err != nil {
		return err
	}

	// Metadata: collect the (pid, tid) tracks in use, sorted.
	type trk struct{ pid, tid int }
	seen := map[trk]bool{}
	var tracks []trk
	for _, s := range spans {
		p, t := track(s)
		k := trk{p, t}
		if !seen[k] {
			seen[k] = true
			tracks = append(tracks, k)
		}
	}
	sort.Slice(tracks, func(i, j int) bool {
		if tracks[i].pid != tracks[j].pid {
			return tracks[i].pid < tracks[j].pid
		}
		return tracks[i].tid < tracks[j].tid
	})
	first := true
	emit := func(format string, args ...any) error {
		if !first {
			if _, err := bw.WriteString(","); err != nil {
				return err
			}
		}
		first = false
		_, err := fmt.Fprintf(bw, "\n"+format, args...)
		return err
	}
	lastPid := -1
	for _, tk := range tracks {
		if tk.pid != lastPid {
			lastPid = tk.pid
			name := "gts framework"
			if tk.pid > 0 {
				name = fmt.Sprintf("gpu%d", tk.pid-1)
			}
			if err := emit("{\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":%s}}", tk.pid, jstr(name)); err != nil {
				return err
			}
		}
		name := "engine"
		if tk.pid == 0 {
			name = "framework"
		} else if tk.tid > 0 {
			name = fmt.Sprintf("stream%d", tk.tid-1)
		}
		if err := emit("{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":%s}}", tk.pid, tk.tid, jstr(name)); err != nil {
			return err
		}
	}

	for _, s := range spans {
		pid, tid := track(s)
		kind := s.Kind.String()
		// The dir attribute appears only on direction-optimized supersteps
		// (Span.Dir != 0), so plain kernels' traces keep their pre-direction
		// bytes.
		dir := ""
		if d := dirName(s.Dir); d != "" {
			dir = ",\"dir\":\"" + d + "\""
		}
		if s.End <= s.Start {
			if err := emit("{\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,\"tid\":%d,\"ts\":%s,\"name\":%s,\"cat\":%s,\"args\":{\"page\":%d,\"level\":%d%s}}",
				pid, tid, usec(s.Start), jstr(kind), jstr(kind), s.Page, s.Level, dir); err != nil {
				return err
			}
			continue
		}
		if err := emit("{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%s,\"dur\":%s,\"name\":%s,\"cat\":%s,\"args\":{\"page\":%d,\"level\":%d%s}}",
			pid, tid, usec(s.Start), usec(s.End-s.Start), jstr(kind), jstr(kind), s.Page, s.Level, dir); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// chromeEvent is the subset of a trace_event entry Parse consumes.
type chromeEvent struct {
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Args map[string]any `json:"args"`
}

// chromeDoc is the trace_event JSON object form.
type chromeDoc struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
	OtherData   struct {
		TraceID string `json:"traceId"`
	} `json:"otherData"`
}

// Parse reads a Chrome trace_event document, as WriteChrome writes it, back
// into a Recorder. Input that is not one — not JSON, or a JSON object with no
// traceEvents array — is an error, not an empty timeline.
func Parse(data []byte) (*Recorder, error) {
	var doc chromeDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("trace: parsing Chrome trace JSON: %w", err)
	}
	if doc.TraceEvents == nil {
		return nil, fmt.Errorf("trace: not a Chrome trace_event document (no traceEvents array)")
	}
	r := NewWithID(doc.OtherData.TraceID)
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" && ev.Ph != "i" {
			continue
		}
		kind, ok := KindByName(ev.Cat)
		if !ok {
			continue
		}
		s := Span{
			GPU:    ev.Pid - 1,
			Stream: ev.Tid - 1,
			Kind:   kind,
			Page:   argInt(ev.Args, "page", -1),
			Level:  int32(argInt(ev.Args, "level", -1)),
			Dir:    dirByName(argStr(ev.Args, "dir")),
			Start:  sim.Time(math.Round(ev.Ts * 1000)),
		}
		s.End = s.Start + sim.Time(math.Round(ev.Dur*1000))
		r.Add(s)
	}
	return r, nil
}

func argStr(args map[string]any, key string) string {
	s, _ := args[key].(string)
	return s
}

func argInt(args map[string]any, key string, def int64) int64 {
	v, ok := args[key]
	if !ok {
		return def
	}
	f, ok := v.(float64)
	if !ok {
		return def
	}
	return int64(f)
}
