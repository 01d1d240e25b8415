package obs

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// exactQuantile is the sorted-sample oracle the histogram approximates:
// the lower empirical quantile sample[ceil(q·n)-1], with negatives clamped
// to 0 the way Observe clamps them.
func exactQuantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	clamped := make([]float64, len(samples))
	for i, v := range samples {
		if v < 0 {
			v = 0
		}
		clamped[i] = v
	}
	sort.Float64s(clamped)
	rank := int(math.Ceil(q * float64(len(clamped))))
	if rank < 1 {
		rank = 1
	}
	return clamped[rank-1]
}

// checkBound asserts the histogram's quantile estimate brackets the exact
// oracle: never below it, and above by at most one bucket width (factor
// Gamma), the error bound the package documents.
func checkBound(t *testing.T, got, exact, q float64) {
	t.Helper()
	const eps = 1e-9
	if got < exact*(1-eps) {
		t.Errorf("q=%v: histogram %v underestimates exact %v", q, got, exact)
	}
	if exact > 0 && got > exact*Gamma*(1+eps) {
		t.Errorf("q=%v: histogram %v exceeds exact %v by more than Gamma=%v", q, got, exact, Gamma)
	}
	if exact == 0 && got != 0 {
		t.Errorf("q=%v: exact is 0 but histogram reports %v", q, got)
	}
}

func TestEmptyHistogram(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Count != 0 || s.Sum != 0 {
		t.Error("zero histogram has nonzero count/sum")
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := s.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}
}

func TestObserveBasics(t *testing.T) {
	var h Histogram
	for _, v := range []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 10 {
		t.Errorf("count = %d", s.Count)
	}
	if s.Sum != 55 {
		t.Errorf("sum = %v", s.Sum)
	}
	samples := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
		checkBound(t, s.Quantile(q), exactQuantile(samples, q), q)
	}
}

func TestObserveEdgeValues(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(-3)
	h.Observe(math.Inf(1))
	h.Observe(math.NaN())
	h.Observe(1)
	s := h.Snapshot()
	if s.Count != 5 {
		t.Errorf("count = %d, want 5", s.Count)
	}
	// Two zeros sort first, so p0.4 is 0; 1 is rank 3 of 5 → p0.6 is in the
	// value-1 bucket; the top ranks fall in the overflow bucket.
	if got := s.Quantile(0.4); got != 0 {
		t.Errorf("p40 = %v, want 0", got)
	}
	if got := s.Quantile(0.6); got < 1 || got > Gamma*(1+1e-9) {
		t.Errorf("p60 = %v, want within [1, Gamma]", got)
	}
	if got := s.Quantile(1); !math.IsInf(got, 1) {
		t.Errorf("p100 = %v, want +Inf", got)
	}
	if s.Sum != 1 {
		t.Errorf("sum = %v, want 1 (only finite positives contribute)", s.Sum)
	}
}

func TestObserveDuration(t *testing.T) {
	var h Histogram
	h.ObserveDuration(250 * time.Millisecond)
	if got := h.Snapshot().Quantile(1); got < 0.25 || got > 0.25*Gamma*(1+1e-9) {
		t.Errorf("p100 = %v, want ≈0.25s within one bucket", got)
	}
}

// TestQuantileMonotonic: for any fixed data, Quantile must be monotone
// nondecreasing in q — the ISSUE's quantile-monotonicity property.
func TestQuantileMonotonic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h Histogram
	for i := 0; i < 500; i++ {
		h.Observe(math.Exp(rng.NormFloat64() * 3))
	}
	h.Observe(0) // include the zero bucket in the walk
	s := h.Snapshot()
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0+1e-12; q += 0.01 {
		got := s.Quantile(q)
		if got < prev {
			t.Fatalf("Quantile not monotone: q=%v gives %v after %v", q, got, prev)
		}
		prev = got
	}
}

// TestQuantileOracle sweeps several distributions against the exact
// sorted-sample oracle at many quantiles — the deterministic cousin of the
// fuzz target below.
func TestQuantileOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	dists := map[string]func() float64{
		"uniform":   func() float64 { return rng.Float64() },
		"lognormal": func() float64 { return math.Exp(rng.NormFloat64() * 4) },
		"heavytail": func() float64 { return 1 / (1 - rng.Float64()) },
		"tiny":      func() float64 { return rng.Float64() * 1e-9 },
		"huge":      func() float64 { return rng.Float64() * 1e12 },
	}
	for name, gen := range dists {
		t.Run(name, func(t *testing.T) {
			var h Histogram
			samples := make([]float64, 1000)
			for i := range samples {
				samples[i] = gen()
				h.Observe(samples[i])
			}
			s := h.Snapshot()
			for q := 0.01; q < 1.0; q += 0.07 {
				checkBound(t, s.Quantile(q), exactQuantile(samples, q), q)
			}
			for _, q := range []float64{0.5, 0.9, 0.99, 1} {
				checkBound(t, s.Quantile(q), exactQuantile(samples, q), q)
			}
		})
	}
}

// FuzzQuantileVsOracle feeds arbitrary byte strings, decoded as a sample
// list, through both the histogram and the exact oracle, asserting the
// documented error bound at several quantiles plus monotonicity.
func FuzzQuantileVsOracle(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{255, 254, 1, 128, 7, 9, 200, 33})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// Decode bytes into positive floats spanning many octaves:
		// value = (1 + b%16) · 2^(b/16 - 8), range ~2^-8 .. 16·2^7.
		samples := make([]float64, 0, len(data))
		var h Histogram
		for _, b := range data {
			v := float64(1+b%16) * math.Pow(2, float64(b/16)-8)
			samples = append(samples, v)
			h.Observe(v)
		}
		s := h.Snapshot()
		if s.Count != uint64(len(samples)) {
			t.Fatalf("count = %d, want %d", s.Count, len(samples))
		}
		prev := math.Inf(-1)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			got := s.Quantile(q)
			if got < prev {
				t.Fatalf("quantiles not monotone at q=%v: %v < %v", q, got, prev)
			}
			prev = got
			checkBound(t, got, exactQuantile(samples, q), q)
		}
	})
}

// TestConcurrentObserve: observations from many goroutines, interleaved
// with snapshots and renders (what /metrics does mid-traffic), all land.
// Run under -race via `make test-race`.
func TestConcurrentObserve(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h.Observe(float64(g*500+i) + 0.5)
				if i%100 == 0 {
					_ = h.Snapshot().Quantile(0.5)
					_ = h.WritePrometheus(io.Discard, "m", "")
				}
			}
		}(g)
	}
	wg.Wait()
	if n := h.Snapshot().Count; n != 8*500 {
		t.Errorf("lost observations: %d", n)
	}
}

func TestWritePrometheus(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(0.5)
	h.Observe(2)
	h.Observe(2.1)
	var sb strings.Builder
	if err := h.WritePrometheus(&sb, "gtsd_job_run_wall_seconds", `algo="bfs"`); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`gtsd_job_run_wall_seconds_bucket{algo="bfs",le="0"} 1`,
		`gtsd_job_run_wall_seconds_bucket{algo="bfs",le="+Inf"} 4`,
		`gtsd_job_run_wall_seconds_sum{algo="bfs"} 4.6`,
		`gtsd_job_run_wall_seconds_count{algo="bfs"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Cumulative: counts never decrease down the bucket list.
	var prev uint64
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, "_bucket{") {
			continue
		}
		fields := strings.Fields(line)
		var c uint64
		if _, err := fmt.Sscanf(fields[len(fields)-1], "%d", &c); err != nil {
			t.Fatalf("unparseable line %q: %v", line, err)
		}
		if c < prev {
			t.Errorf("bucket counts not cumulative at %q", line)
		}
		prev = c
	}

	// No labels: _sum/_count carry no braces.
	var h2 Histogram
	h2.Observe(1)
	sb.Reset()
	if err := h2.WritePrometheus(&sb, "m", ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "m_count 1") || strings.Contains(sb.String(), "m_count{}") {
		t.Errorf("unlabeled form wrong:\n%s", sb.String())
	}
}
