package trace

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Add(Span{Kind: Kernel})
	r.Reset()
	if r.Spans() != nil || r.Total(Kernel) != 0 || r.Len() != 0 {
		t.Error("nil recorder must record nothing")
	}
	if sum := r.Summary(); sum.Spans != 0 || sum.Makespan != 0 {
		t.Error("nil recorder summary must be zero")
	}
	var sb strings.Builder
	if err := r.RenderTimeline(&sb, 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "no spans") {
		t.Error("nil recorder render should say no spans")
	}
}

func TestTotals(t *testing.T) {
	r := New()
	r.Add(Span{Kind: CopyPage, Start: 0, End: sim.Second})
	r.Add(Span{Kind: CopyPage, Start: sim.Second, End: 3 * sim.Second})
	r.Add(Span{Kind: Kernel, Start: 0, End: 5 * sim.Second})
	if got := r.Total(CopyPage); got != 3*sim.Second {
		t.Errorf("copy total = %v", got)
	}
	if got := r.Total(Kernel); got != 5*sim.Second {
		t.Errorf("kernel total = %v", got)
	}
	if len(r.Spans()) != 3 {
		t.Errorf("spans = %d", len(r.Spans()))
	}
}

// TestSummaryAccounting pins Summary against per-kind Totals: the one-pass
// aggregate must agree with the per-kind scans, count every span, and track
// the makespan even when spans arrive out of time order.
func TestSummaryAccounting(t *testing.T) {
	r := New()
	r.Add(Span{Kind: Kernel, Start: 2 * sim.Second, End: 9 * sim.Second})
	r.Add(Span{Kind: CopyPage, Start: 0, End: sim.Second})
	r.Add(Span{Kind: CopyPage, Start: sim.Second, End: 4 * sim.Second})
	r.Add(Span{Kind: StorageIO, Start: 0, End: 3 * sim.Second})
	r.Add(Span{Kind: CopyWA, Start: 0, End: sim.Second / 2})
	r.Add(Span{Kind: Sync, Start: 5 * sim.Second, End: 6 * sim.Second})

	sum := r.Summary()
	if sum.Spans != 6 || sum.Spans != r.Len() {
		t.Errorf("Spans = %d, Len = %d, want 6", sum.Spans, r.Len())
	}
	if sum.Makespan != 9*sim.Second {
		t.Errorf("Makespan = %v, want 9s", sum.Makespan)
	}
	for k := Kind(0); int(k) < NumKinds; k++ {
		if sum.Busy[k] != r.Total(k) {
			t.Errorf("Busy[%v] = %v, Total = %v", k, sum.Busy[k], r.Total(k))
		}
	}
	if sum.Busy[CopyPage] != 4*sim.Second || sum.Busy[Kernel] != 7*sim.Second {
		t.Errorf("Busy copy/kernel = %v/%v", sum.Busy[CopyPage], sum.Busy[Kernel])
	}

	r.Reset()
	if r.Len() != 0 || r.Summary().Spans != 0 {
		t.Error("Reset did not clear the recorder")
	}
	r.Add(Span{Kind: Kernel, Start: 0, End: sim.Second})
	if r.Total(Kernel) != sim.Second {
		t.Error("recorder unusable after Reset")
	}
}

func TestMTEPS(t *testing.T) {
	cases := []struct {
		edges   int64
		elapsed sim.Time
		want    float64
	}{
		{2_000_000, sim.Second, 2},
		{68_000_000_000, 1675 * sim.Second, 68e9 / 1675 / 1e6}, // the paper's RMAT32 PageRank scale
		{1_000_000, 0, 0},                                      // no elapsed time exports 0, not +Inf
		{1_000_000, -1, 0},                                     // defensive: negative time exports 0
		{0, sim.Second, 0},
	}
	for _, c := range cases {
		if got := MTEPS(c.edges, c.elapsed); got != c.want {
			t.Errorf("MTEPS(%d, %v) = %v, want %v", c.edges, c.elapsed, got, c.want)
		}
	}
}

// TestConcurrentRecording hammers one recorder from many goroutines — a
// Config.Trace is shared by every System built from the Config — and checks
// nothing is lost. Run under -race via `make test-race`.
func TestConcurrentRecording(t *testing.T) {
	r := New()
	const goroutines, perG = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Add(Span{GPU: g, Kind: Kind(i % NumKinds), Start: sim.Time(i), End: sim.Time(i + 1)})
				if i%32 == 0 {
					_ = r.Summary()
					_ = r.Total(Kernel)
					_ = r.Spans()
				}
			}
		}(g)
	}
	// Concurrent readers while writes are in flight.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sb strings.Builder
			_ = r.RenderTimeline(&sb, 20)
			_ = r.Len()
		}()
	}
	wg.Wait()
	sum := r.Summary()
	if sum.Spans != goroutines*perG {
		t.Errorf("recorded %d spans, want %d", sum.Spans, goroutines*perG)
	}
	var busy sim.Time
	for k := 0; k < NumKinds; k++ {
		busy += sum.Busy[k]
	}
	if want := sim.Time(goroutines * perG); busy != want {
		t.Errorf("total busy = %v, want %v", busy, want)
	}
}

// TestSpansReturnsCopy guards the export hook: mutating the returned slice
// must not corrupt the recorder.
func TestSpansReturnsCopy(t *testing.T) {
	r := New()
	r.Add(Span{Kind: Kernel, Start: 0, End: sim.Second})
	spans := r.Spans()
	spans[0].End = 100 * sim.Second
	if r.Total(Kernel) != sim.Second {
		t.Error("Spans() exposed internal storage")
	}
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{CopyWA: "copyWA", CopyPage: "copy", Kernel: "kernel",
		StorageIO: "io", Sync: "sync", Fault: "fault", Retry: "retry",
		Run: "run", Superstep: "superstep"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}

// TestKindStringExhaustive guards against the silent-fallthrough bug class:
// every declared kind must have its own unique name (none may alias the
// default case), and values outside the range must format as "kind(N)"
// rather than borrowing a real kind's name.
func TestKindStringExhaustive(t *testing.T) {
	seen := map[string]Kind{}
	for k := Kind(0); int(k) < NumKinds; k++ {
		name := k.String()
		if strings.HasPrefix(name, "kind(") {
			t.Errorf("kind %d fell through to the default case: %q", k, name)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d share the name %q", prev, k, name)
		}
		seen[name] = k
		back, ok := KindByName(name)
		if !ok || back != k {
			t.Errorf("KindByName(%q) = %v, %v; want %v, true", name, back, ok, k)
		}
	}
	for _, k := range []Kind{Kind(NumKinds), Kind(NumKinds + 7), Kind(-1)} {
		want := fmt.Sprintf("kind(%d)", int(k))
		if got := k.String(); got != want {
			t.Errorf("out-of-range kind %d.String() = %q, want %q", k, got, want)
		}
	}
	if _, ok := KindByName("kind(3)"); ok {
		t.Error("KindByName accepted the unknown-kind form")
	}
}

func TestRenderTimeline(t *testing.T) {
	r := New()
	r.Add(Span{GPU: 0, Stream: 0, Kind: CopyPage, Start: 0, End: sim.Second})
	r.Add(Span{GPU: 0, Stream: 0, Kind: Kernel, Start: sim.Second, End: 4 * sim.Second})
	r.Add(Span{GPU: 0, Stream: 1, Kind: CopyPage, Start: sim.Second, End: 2 * sim.Second})
	r.Add(Span{GPU: 0, Stream: 1, Kind: Kernel, Start: 2 * sim.Second, End: 4 * sim.Second})
	var sb strings.Builder
	if err := r.RenderTimeline(&sb, 40); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "gpu0/stream0") || !strings.Contains(out, "gpu0/stream1") {
		t.Errorf("missing rows:\n%s", out)
	}
	if !strings.Contains(out, "▒") || !strings.Contains(out, "█") {
		t.Errorf("missing copy/kernel cells:\n%s", out)
	}
}
