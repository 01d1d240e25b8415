// Package trace records hierarchical, request-scoped activity spans during
// a GTS run so the paper's Figure 4 timelines (copy vs. kernel bars per GPU
// stream) can be regenerated, and aggregates the transfer/kernel totals
// behind Table 1. Spans nest run → superstep → (GPU, stream) →
// copy/kernel/io/fault via the Level field and the Run/Superstep container
// kinds; export.go turns a recorder into Chrome trace_event JSON (loadable
// in chrome://tracing and Perfetto) and parses it back. Summary aggregates a
// recorder for gts -trace and gtsinspect trace; MTEPS is the engine's
// throughput metric.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"repro/internal/sim"
)

// Kind labels a span.
type Kind int

// Span kinds.
const (
	CopyWA      Kind = iota // chunk copy of attribute data
	CopyPage                // streaming copy of a topology page (+RA)
	Kernel                  // kernel execution
	StorageIO               // SSD/HDD fetch into the main-memory buffer
	Sync                    // WA synchronization back to the host
	Fault                   // injected fault (zero-duration marker at the injection instant)
	Retry                   // recovery re-attempt (zero-duration marker)
	Run                     // the whole run, emitted once at completion
	Superstep               // one traversal level / iteration, superstep + sync
	Wave                    // one superstep's wave, numbered in the run
	PoolHit                 // host buffer-pool pin served from a resident page (marker)
	PoolLoad                // host buffer-pool pin that loaded the page from storage (marker)
	PoolWait                // host buffer-pool pin denied (busy/no frame) — bypass read (marker)
	WALAppend               // one ingest batch appended (framed + written) to the write-ahead log
	WALFsync                // the fsync that makes one appended WAL batch durable
	WALReplay               // WAL recovery replay at graph-open time
	IncSeed                 // incremental run seeded from retained state (marker; Page = seed count)
	IncFallback             // incremental request fell back to a full recompute (marker)
)

// NumKinds is the count of span kinds (for Summary.Busy indexing).
const NumKinds = int(IncFallback) + 1

// String names the kind. Unknown values format as "kind(N)" rather than
// silently aliasing a real kind.
func (k Kind) String() string {
	switch k {
	case CopyWA:
		return "copyWA"
	case CopyPage:
		return "copy"
	case Kernel:
		return "kernel"
	case StorageIO:
		return "io"
	case Sync:
		return "sync"
	case Fault:
		return "fault"
	case Retry:
		return "retry"
	case Run:
		return "run"
	case Superstep:
		return "superstep"
	case Wave:
		return "wave"
	case PoolHit:
		return "poolhit"
	case PoolLoad:
		return "poolload"
	case PoolWait:
		return "poolwait"
	case WALAppend:
		return "walappend"
	case WALFsync:
		return "walfsync"
	case WALReplay:
		return "walreplay"
	case IncSeed:
		return "incseed"
	case IncFallback:
		return "incfallback"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// KindByName resolves a kind name produced by Kind.String; ok is false for
// names no kind produces (including the "kind(N)" unknown form).
func KindByName(name string) (Kind, bool) {
	for k := Kind(0); int(k) < NumKinds; k++ {
		if k.String() == name {
			return k, true
		}
	}
	return 0, false
}

// Span is one recorded activity interval. GPU and Stream are -1 for spans
// that belong to the framework rather than a device track (Run, Superstep)
// or to a whole device rather than a stream (CopyWA, Sync). Level is the
// superstep (traversal level or iteration) the span belongs to, -1 for
// spans outside any superstep — it is what nests a copy/kernel/io span
// under its Superstep container, and every Superstep under the Run.
type Span struct {
	GPU    int
	Stream int
	Kind   Kind
	Page   int64 // page ID, or -1
	Level  int32 // superstep index, or -1
	// Dir is the traversal direction a direction-optimized superstep
	// executed in (1 = push, 2 = pull; see kernels.Direction). 0 for
	// non-superstep spans and plain kernels, in which case the exporter
	// omits the attribute entirely, keeping its output byte-identical to
	// pre-direction traces.
	Dir   int8
	Start sim.Time
	End   sim.Time
}

// Direction attribute values as Span.Dir carries them.
const (
	DirPush int8 = 1
	DirPull int8 = 2
)

// dirName spells a Span.Dir value as the exporter emits it ("" = omit).
func dirName(d int8) string {
	switch d {
	case DirPush:
		return "push"
	case DirPull:
		return "pull"
	default:
		return ""
	}
}

// dirByName inverts dirName for Parse; unknown spellings map to 0.
func dirByName(s string) int8 {
	switch s {
	case "push":
		return DirPush
	case "pull":
		return DirPull
	default:
		return 0
	}
}

// Recorder accumulates the spans of one traced run under a TraceID. A nil
// *Recorder is valid and records nothing, so engines can trace
// unconditionally. A Recorder is safe for concurrent use: a pooled service
// may share one recorder across parallel runs, and exports may run while
// spans are still being added.
type Recorder struct {
	mu    sync.Mutex
	id    string
	spans []Span
}

// New returns an empty recorder with no trace ID.
func New() *Recorder { return &Recorder{} }

// NewWithID returns an empty recorder whose exports carry the given trace
// ID (a job ID, a benchmark name, ...).
func NewWithID(id string) *Recorder { return &Recorder{id: id} }

// ID returns the trace ID ("" when unset).
func (r *Recorder) ID() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.id
}

// Add records one span.
func (r *Recorder) Add(s Span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Spans returns a copy of the recorded spans in insertion order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.spans == nil {
		return nil
	}
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	return out
}

// Len reports the number of recorded spans.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Reset discards all recorded spans, keeping the recorder usable.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = r.spans[:0]
	r.mu.Unlock()
}

// Total reports the summed duration of spans of the given kind.
func (r *Recorder) Total(k Kind) sim.Time {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var t sim.Time
	for _, s := range r.spans {
		if s.Kind == k {
			t += s.End - s.Start
		}
	}
	return t
}

// Summary aggregates a recorder for metric export: per-kind busy time, the
// span count, and the makespan (latest span end).
type Summary struct {
	Spans    int
	Busy     [NumKinds]sim.Time
	Makespan sim.Time
}

// Summary computes the aggregate view in one pass. A nil recorder returns
// the zero Summary.
func (r *Recorder) Summary() Summary {
	var sum Summary
	if r == nil {
		return sum
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	sum.Spans = len(r.spans)
	for _, s := range r.spans {
		if int(s.Kind) < NumKinds {
			sum.Busy[s.Kind] += s.End - s.Start
		}
		if s.End > sum.Makespan {
			sum.Makespan = s.End
		}
	}
	return sum
}

// MTEPS converts an edge count and a virtual elapsed time into millions of
// traversed edges per second — the paper's throughput metric. Zero elapsed
// time yields 0 rather than +Inf, so idle summaries export cleanly.
func MTEPS(edges int64, elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(edges) / elapsed.Seconds() / 1e6
}

// RenderTimeline writes an ASCII rendering of the Figure 4 timeline: one
// row per (GPU, stream), '▒' cells for copies and '█' cells for kernel
// execution, over `width` time buckets.
func (r *Recorder) RenderTimeline(w io.Writer, width int) error {
	spans := r.Spans()
	if len(spans) == 0 {
		_, err := fmt.Fprintln(w, "(no spans recorded)")
		return err
	}
	var end sim.Time
	rows := map[[2]int][]Span{}
	var keys [][2]int
	for _, s := range spans {
		if s.Kind != CopyPage && s.Kind != Kernel {
			continue
		}
		key := [2]int{s.GPU, s.Stream}
		if _, ok := rows[key]; !ok {
			keys = append(keys, key)
		}
		rows[key] = append(rows[key], s)
		if s.End > end {
			end = s.End
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	if end == 0 {
		end = 1
	}
	bucket := func(t sim.Time) int {
		b := int(int64(t) * int64(width) / int64(end))
		if b >= width {
			b = width - 1
		}
		return b
	}
	for _, key := range keys {
		cells := make([]rune, width)
		for i := range cells {
			cells[i] = '·'
		}
		for _, s := range rows[key] {
			ch := '█'
			if s.Kind == CopyPage {
				ch = '▒'
			}
			for b := bucket(s.Start); b <= bucket(s.End-1) && b < width; b++ {
				// Kernels never overwrite copies in the same bucket; both
				// being visible matters more than exact pixel ownership.
				if cells[b] == '·' || ch == '▒' {
					cells[b] = ch
				}
			}
		}
		if _, err := fmt.Fprintf(w, "gpu%d/stream%-2d %s\n", key[0], key[1], string(cells)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s\n('▒' = page copy, '█' = kernel; %d buckets over %v)\n",
		strings.Repeat("-", 14+width), width, end)
	return err
}
