package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the harness into a layer. Parent is the ID of
// the span that caused it (-1 for a root); Round is the measured round it
// belongs to (-1 for set-up, the warm-up round and the direct drivers).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Round   int    `json:"round"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the pass ends. A nil tracer records
// nothing: the untraced run pays two nil checks per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID, or -1 on a nil tracer.
func (t *tracer) begin(name string, parent, round int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Round: round, StartNs: now, EndNs: -1})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].EndNs = now
	t.mu.Unlock()
}

// covered returns how much of [lo,hi) the given intervals cover, counting
// overlapping intervals once.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	at := lo
	for _, iv := range ivs {
		s, e := iv[0], iv[1]
		if s < at {
			s = at
		}
		if e > hi {
			e = hi
		}
		if e > s {
			sum += e - s
			at = e
		}
	}
	return sum
}

// spanSummary is the per-name roll-up written beside the spans: a name's
// self time is its spans' duration minus the part their children cover.
type spanSummary struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// childIntervals maps each span to the intervals of its direct children.
func (t *tracer) childIntervals() map[int][][2]int64 {
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.EndNs >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNs, s.EndNs})
		}
	}
	return children
}

func (t *tracer) summarize() map[string]spanSummary {
	children := t.childIntervals()
	out := make(map[string]spanSummary)
	for _, s := range t.spans {
		if s.EndNs < 0 {
			continue
		}
		sum := out[s.Name]
		sum.Count++
		dur := s.EndNs - s.StartNs
		sum.TotalMs += float64(dur) / 1e6
		sum.SelfMs += float64(dur-covered(s.StartNs, s.EndNs, children[s.ID])) / 1e6
		out[s.Name] = sum
	}
	return out
}

// roundCoverage is the share of the measured rounds' wall that their direct
// children cover. Close to 1 means the harness put a span around
// everything a round does.
func (t *tracer) roundCoverage() float64 {
	children := t.childIntervals()
	var wall, cov int64
	for _, s := range t.spans {
		if s.Name != "round" || s.Round < 0 || s.EndNs < 0 {
			continue
		}
		wall += s.EndNs - s.StartNs
		cov += covered(s.StartNs, s.EndNs, children[s.ID])
	}
	return ratio(float64(cov), float64(wall))
}

func (t *tracer) write(path, workload string, stamp envStamp) error {
	doc := struct {
		Workload string                 `json:"workload"`
		Env      envStamp               `json:"env"`
		Summary  map[string]spanSummary `json:"summary"`
		Spans    []span                 `json:"spans"`
	}{workload, stamp, t.summarize(), t.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
