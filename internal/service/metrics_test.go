package service

import (
	"fmt"
	"math"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	gts "repro"
)

// metricFamilies is every family /metrics declares, with its type. Adding or
// deleting a series is an edit here.
var metricFamilies = map[string]string{
	"gtsd_queue_depth":                        "gauge",
	"gtsd_queue_capacity":                     "gauge",
	"gtsd_inflight_jobs":                      "gauge",
	"gtsd_graphs_loaded":                      "gauge",
	"gtsd_jobs_submitted_total":               "counter",
	"gtsd_jobs_completed_total":               "counter",
	"gtsd_jobs_failed_total":                  "counter",
	"gtsd_jobs_rejected_total":                "counter",
	"gtsd_jobs_timedout_total":                "counter",
	"gtsd_cache_hits_total":                   "counter",
	"gtsd_cache_misses_total":                 "counter",
	"gtsd_cache_entries":                      "gauge",
	"gtsd_job_table_bytes":                    "gauge",
	"gtsd_faults_injected_total":              "counter",
	"gtsd_fault_retries_total":                "counter",
	"gtsd_fault_recoveries_total":             "counter",
	"gtsd_fault_degradations_total":           "counter",
	"gtsd_hw_failures_total":                  "counter",
	"gtsd_jobs_coalesced_total":               "counter",
	"gtsd_waves_total":                        "counter",
	"gtsd_page_copies_total":                  "counter",
	"gtsd_shared_bytes_to_gpu_total":          "counter",
	"gtsd_ingest_batches_total":               "counter",
	"gtsd_ingest_edges_total":                 "counter",
	"gtsd_ingest_failures_total":              "counter",
	"gtsd_incremental_hits_total":             "counter",
	"gtsd_incremental_fallbacks_total":        "counter",
	"gtsd_incremental_saved_supersteps_total": "counter",
	"gtsd_wal_appends_total":                  "counter",
	"gtsd_wal_appended_bytes_total":           "counter",
	"gtsd_wal_fsyncs_total":                   "counter",
	"gtsd_wal_replayed_batches":               "gauge",
	"gtsd_wal_truncated_bytes":                "gauge",
	"gtsd_graph_epoch":                        "gauge",
	"gtsd_pool_hits_total":                    "counter",
	"gtsd_pool_loads_total":                   "counter",
	"gtsd_pool_evictions_total":               "counter",
	"gtsd_pool_pin_waits_total":               "counter",
	"gtsd_pool_resident_pages":                "gauge",
	"gtsd_pool_pinned_pages":                  "gauge",
	"gtsd_pool_resident_bytes":                "gauge",
	"gtsd_pool_budget_bytes":                  "gauge",
	"gtsd_job_queue_wait_seconds":             "histogram",
	"gtsd_job_run_wall_seconds":               "histogram",
	"gtsd_job_wall_seconds_total":             "counter",
	"gtsd_job_virtual_seconds_total":          "counter",
	"gtsd_job_latency_seconds":                "histogram",
}

// leLabel matches a bucket's le label, with the comma before it if any.
var leLabel = regexp.MustCompile(`,?le="([^"]*)"`)

// scrapeConformant parses one /metrics exposition, checks it against the
// text-format rules below, and returns its counter samples keyed by series
// (name plus labels). The families it declares are added to declared.
func scrapeConformant(t *testing.T, text string, declared map[string]bool) map[string]float64 {
	t.Helper()
	help, typ := map[string]int{}, map[string]string{}
	counters := map[string]float64{}
	type bucketRun struct{ le, count float64 }
	buckets := map[string][]bucketRun{} // histogram series -> its le buckets in order
	counts := map[string]float64{}      // histogram series -> its _count
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if f := strings.Fields(line); len(f) >= 3 && f[0] == "#" {
			switch f[1] {
			case "HELP":
				help[f[2]]++
			case "TYPE":
				if _, dup := typ[f[2]]; dup {
					t.Errorf("family %s is declared twice", f[2])
				}
				typ[f[2]] = f[len(f)-1]
				declared[f[2]] = true
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("sample line %q: %v", line, err)
		}
		series := line[:sp]
		name, labels, _ := strings.Cut(series, "{")
		labels = strings.TrimSuffix(labels, "}")
		family, suffix := name, ""
		if _, ok := typ[name]; !ok {
			for _, s := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(name, s); ok && typ[base] == "histogram" {
					family, suffix = base, s
				}
			}
		}
		if help[family] != 1 || typ[family] == "" {
			t.Errorf("sample %q belongs to no family with one # HELP and one # TYPE", line)
			continue
		}
		switch {
		case typ[family] == "counter":
			counters[series] = v
		case suffix == "_bucket":
			m := leLabel.FindStringSubmatch(labels)
			if m == nil {
				t.Fatalf("bucket without le: %q", line)
			}
			le, err := strconv.ParseFloat(m[1], 64)
			if err != nil {
				t.Fatalf("bucket le %q: %v", m[1], err)
			}
			key := family + "{" + strings.TrimPrefix(leLabel.ReplaceAllString(labels, ""), ",")
			buckets[key] = append(buckets[key], bucketRun{le, v})
		case suffix == "_count":
			counts[family+"{"+labels] = v
		}
	}
	for family := range help {
		if typ[family] == "" {
			t.Errorf("family %s has a # HELP and no # TYPE", family)
		}
	}
	for family, kind := range typ {
		if help[family] != 1 {
			t.Errorf("family %s has %d # HELP lines", family, help[family])
		}
		if want, ok := metricFamilies[family]; !ok || kind != want {
			t.Errorf("family %s declared %s; the pinned list says %q", family, kind, want)
		}
		if kind == "counter" && !strings.HasSuffix(family, "_total") {
			t.Errorf("counter %s does not end in _total", family)
		}
	}
	for key, run := range buckets {
		for i := 1; i < len(run); i++ {
			if run[i].le <= run[i-1].le || run[i].count < run[i-1].count {
				t.Errorf("%s: buckets not cumulative in le at %+v after %+v", key, run[i], run[i-1])
			}
		}
		last := run[len(run)-1]
		c, ok := counts[key]
		if !math.IsInf(last.le, 1) || !ok || last.count != c {
			t.Errorf("%s: +Inf bucket %+v, _count %v (found %v)", key, last, c, ok)
		}
	}
	return counters
}

// TestMetricsConformance scrapes /metrics after each step of a server's
// life — an immutable load, a mutable load on a pooled SSD, a computed
// query, a cache hit, a coalesced pair, an ingest and a second query — and
// holds every scrape to the text format's rules: each sample belongs to a
// family with one # HELP and one # TYPE, no family is declared twice, every
// counter ends in _total, histogram buckets are cumulative in le with +Inf
// equal to _count, and no counter sample falls between scrapes (the per-graph
// gtsd_wal_* and gtsd_pool_* series across the ingest among them). The
// families declared over the whole run are exactly metricFamilies. The two
// job-table gauges read what the table holds after each query: the finished
// jobs that answer by key, and the bytes charged for every finished BFS job.
func TestMetricsConformance(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	h := srv.Handler()
	declared := map[string]bool{}
	var last map[string]float64
	var text string
	scrape := func(after string) map[string]float64 {
		t.Helper()
		text = string(serveOK(t, h, "GET", "/metrics", ""))
		got := scrapeConformant(t, text, declared)
		for series, v := range last {
			if now, ok := got[series]; !ok || now < v {
				t.Errorf("after the %s: counter %s went from %v to %v (present %v)", after, series, v, now, ok)
			}
		}
		last = got
		return got
	}
	bfs := func(source string) { serveOK(t, h, "POST", "/v1/graphs/mut/bfs", `{"source":`+source+`}`) }
	// table checks the job-table gauges: cached answers, and the bytes of the
	// finished BFS jobs ids, each charged its levels, its metrics' per-level
	// slices and the fixed per-job cost.
	table := func(after string, cached int, ids ...string) {
		t.Helper()
		var charged int64
		for _, id := range ids {
			job, err := srv.Lookup(id)
			if err != nil {
				t.Fatalf("after the %s: %v", after, err)
			}
			res, _ := job.Result()
			m := res.Metrics
			charged += jobEntryBytes + 2*int64(len(res.Output.(*gts.BFSResult).Levels)) +
				int64(8*cap(m.LevelPages)+8*cap(m.LevelBytes)+16*cap(m.LevelDirs))
		}
		for _, want := range []string{
			fmt.Sprintf("\ngtsd_cache_entries %d\n", cached),
			fmt.Sprintf("\ngtsd_job_table_bytes %d\n", charged),
		} {
			if !strings.Contains(text, want) {
				t.Errorf("after the %s: no %q in /metrics", after, strings.TrimSpace(want))
			}
		}
	}

	if err := srv.Load("imm", LoadRequest{Spec: "RMAT27@16"}); err != nil {
		t.Fatal(err)
	}
	scrape("immutable load")
	wal := filepath.Join(t.TempDir(), "mut.wal")
	if err := srv.Load("mut", LoadRequest{Spec: "RMAT26@15", Storage: "ssd", PoolBytes: 65536, WAL: wal}); err != nil {
		t.Fatal(err)
	}
	scrape("mutable load")
	bfs("0")
	scrape("computed query")
	table("computed query", 1, "job-000001")
	bfs("0")
	if got := scrape("cache hit")["gtsd_cache_hits_total"]; got != 1 {
		t.Errorf("gtsd_cache_hits_total = %v after one cache hit", got)
	}
	table("cache hit", 1, "job-000001", "job-000002")

	// Hold the System so the second of an identical pair finds the first in
	// flight.
	srv.mu.Lock()
	sys := srv.graphs["mut"].sys
	srv.mu.Unlock()
	release := HoldSystem(sys)
	req := Request{Graph: "mut", Algo: "bfs", Params: Params{Source: 1}}
	a, err := srv.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := srv.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	release()
	<-a.Done()
	<-b.Done()
	if got := scrape("coalesced pair")["gtsd_jobs_coalesced_total"]; got != 1 {
		t.Errorf("gtsd_jobs_coalesced_total = %v after one coalesced pair", got)
	}
	table("coalesced pair", 2, "job-000001", "job-000002", a.ID(), b.ID())

	serveOK(t, h, "POST", "/v1/graphs/mut/ingest", `{"edges":[{"src":1,"dst":2}]}`)
	if got := scrape("ingest")[`gtsd_wal_appends_total{graph="mut"}`]; got != 1 {
		t.Errorf(`gtsd_wal_appends_total{graph="mut"} = %v after one ingest`, got)
	}
	bfs("0")
	scrape("second query")
	table("second query", 3, "job-000001", "job-000002", a.ID(), b.ID(), "job-000005")

	var missing []string
	for family := range metricFamilies {
		if !declared[family] {
			missing = append(missing, family)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("pinned families never declared: %v", missing)
	}
}
