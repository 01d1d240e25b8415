// Package obs holds the service-layer observability primitive: log-bucketed
// latency histograms that answer p50/p90/p99 queries without retaining
// samples. A histogram is a sparse map from log-spaced buckets to
// counts — observations land in the bucket whose range covers them, and a
// quantile query walks the buckets in order and reports the upper bound of
// the bucket the target rank falls in. The relative error of any quantile
// is therefore bounded by one bucket's width: with BucketsPerOctave = 8 the
// bucket boundaries grow by 2^(1/8) ≈ 1.0905, so a reported quantile is at
// most ~9.05% above the exact sample quantile and never below it.
// internal/service keeps one histogram per latency series, reads quantiles
// from a Snapshot and renders the buckets on /metrics.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"
)

// BucketsPerOctave is the number of log-spaced buckets per doubling of the
// value range. 8 gives a worst-case quantile overestimate of 2^(1/8)-1 ≈
// 9.05%, comparable to Prometheus native histograms' default schema.
const BucketsPerOctave = 8

// Gamma is the bucket-width growth factor, 2^(1/BucketsPerOctave). A
// quantile reported by the histogram q̂ satisfies q ≤ q̂ ≤ q·Gamma for the
// exact sample quantile q (zero and +Inf observations aside).
var Gamma = math.Pow(2, 1.0/BucketsPerOctave)

// Histogram is a log-bucketed histogram of non-negative float64
// observations. The zero value is ready to use. All methods are safe for
// concurrent use.
type Histogram struct {
	mu      sync.Mutex
	buckets map[int]uint64 // log-bucket index → count, finite positive values
	zeros   uint64         // observations ≤ 0 (clamped to zero)
	infs    uint64         // +Inf / NaN observations
	count   uint64
	sum     float64
}

// bucketIndex maps a finite positive value to its bucket: the integer i
// such that Gamma^i ≤ v < Gamma^(i+1), computed in log2 space so the same
// value always lands in the same bucket regardless of accumulated float
// error in a Gamma power chain.
func bucketIndex(v float64) int {
	return int(math.Floor(math.Log2(v) * BucketsPerOctave))
}

// bucketUpper is the exclusive upper bound of bucket i, Gamma^(i+1).
func bucketUpper(i int) float64 {
	return math.Pow(2, float64(i+1)/BucketsPerOctave)
}

// Observe records one observation. Values ≤ 0 count in a dedicated zero
// bucket; NaN and +Inf count in an overflow bucket (both still contribute
// to the snapshot's Count, and finite values to its Sum).
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.count++
	switch {
	case math.IsNaN(v) || math.IsInf(v, 1):
		h.infs++
	case v <= 0:
		h.zeros++
	default:
		if h.buckets == nil {
			h.buckets = make(map[int]uint64)
		}
		h.buckets[bucketIndex(v)]++
		h.sum += v
	}
}

// ObserveDuration records a wall-clock duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(d.Seconds())
}

// Bucket is one populated bucket in a Snapshot, covering (Lower, Upper].
type Bucket struct {
	Index int
	Upper float64 // exclusive upper bound Gamma^(Index+1)
	Count uint64
}

// Snapshot is a point-in-time copy of a histogram, ordered by bucket.
type Snapshot struct {
	Buckets []Bucket // ascending by Index
	Zeros   uint64
	Infs    uint64
	Count   uint64
	Sum     float64
}

// Snapshot copies the histogram state, with buckets sorted ascending.
func (h *Histogram) Snapshot() Snapshot {
	h.mu.Lock()
	s := Snapshot{Zeros: h.zeros, Infs: h.infs, Count: h.count, Sum: h.sum}
	s.Buckets = make([]Bucket, 0, len(h.buckets))
	for i, c := range h.buckets {
		s.Buckets = append(s.Buckets, Bucket{Index: i, Upper: bucketUpper(i), Count: c})
	}
	h.mu.Unlock()
	sort.Slice(s.Buckets, func(a, b int) bool { return s.Buckets[a].Index < s.Buckets[b].Index })
	return s
}

// Quantile reports an upper bound on the q-quantile (0 ≤ q ≤ 1) of the
// observed values: the upper edge of the bucket holding the target rank.
// The result never underestimates the exact sample quantile and
// overestimates it by at most a factor of Gamma. An empty snapshot reports
// 0; a rank landing in the overflow bucket reports +Inf.
func (s Snapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is the 1-based index of the order statistic we want: the
	// smallest value v such that at least ceil(q·n) observations are ≤ v
	// (the "lower" empirical quantile, matching a sorted-sample oracle
	// sample[ceil(q·n)-1]).
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	seen += s.Zeros
	if rank <= seen {
		return 0
	}
	for _, b := range s.Buckets {
		seen += b.Count
		if rank <= seen {
			return b.Upper
		}
	}
	return math.Inf(1)
}

// WritePrometheus emits the histogram as one Prometheus text-format
// histogram family: cumulative `le` buckets over the populated range, a
// +Inf bucket, and the _sum/_count pair. labels is the label set rendered
// inside the braces ("" for none). The bucket edges are the histogram's
// own log-spaced bounds, so scrapes carry the full resolution.
func (h *Histogram) WritePrometheus(w io.Writer, name, labels string) error {
	s := h.Snapshot()
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	cum = s.Zeros
	if s.Zeros > 0 {
		if _, err := fmt.Fprintf(w, "%s_bucket{%s%sle=\"0\"} %d\n", name, labels, sep, cum); err != nil {
			return err
		}
	}
	for _, b := range s.Buckets {
		cum += b.Count
		if _, err := fmt.Fprintf(w, "%s_bucket{%s%sle=\"%g\"} %d\n", name, labels, sep, b.Upper, cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, s.Count); err != nil {
		return err
	}
	braces := ""
	if labels != "" {
		braces = "{" + labels + "}"
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", name, braces, s.Sum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, braces, s.Count)
	return err
}
