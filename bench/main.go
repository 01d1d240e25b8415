// gtsperf is the repository's benchmark: four workloads on one graph, each
// measured on both of the system's clocks — virtual time from the hardware
// model and host wall time — from outside the program, through its public
// functions and the counters they return. See README.md.
//
//	go run . -workload scan-mem -seed 1 -seconds 12 -trace 0
//
// One run of a workload is three passes, each a child process of its own
// that sets the workload up, warms it up and measures a fixed number of
// rounds of identical work; the rounds of all passes are pooled. The last line of standard
// output is one JSON object: correct, attempted, failed, metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

var workloadNames = []string{"scan-mem", "traverse-mem", "stream-ssd", "serve-live"}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	smoke    bool
	out      string
	record   string
	corrupt  bool

	// Set by the driver on the child processes it starts.
	child bool
	pass  int
	last  bool
}

func parseFlags(args []string) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("gtsperf", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "all", "one of "+strings.Join(workloadNames, ", ")+", or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the edge batches every workload's inputs are made from")
	fs.IntVar(&o.seconds, "seconds", 12, "measured rounds per pass; a round takes about a third of a second, so three passes measure for about this many seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics and out/trace-<workload>.json")
	fs.StringVar(&o.out, "out", "out", "directory for traces and scratch files")
	fs.StringVar(&o.record, "record", "", "also write the full record of the run to this file")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny run: RMAT27@14, 1 pass of 2 rounds")
	fs.BoolVar(&o.corrupt, "corrupt", false, "flip every expected digest (shows that a wrong result fails the run)")
	fs.BoolVar(&o.child, "child", false, "internal: run one pass and print its result")
	fs.IntVar(&o.pass, "pass", 0, "internal: pass number")
	fs.BoolVar(&o.last, "last", false, "internal: last pass of the run")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.trace = trace != 0
	if o.smoke {
		o.seconds = 2
	}
	if o.seconds < 1 {
		return o, errors.New("-seconds must be at least 1")
	}
	return o, nil
}

// graph is the one graph every workload runs on: registry dataset @ shrink.
func (o options) graph() string {
	if o.smoke {
		return "RMAT27@14"
	}
	return "RMAT27@11"
}

// passes is the number of child processes per workload. A traced run makes
// two: pass 0 untraced, as the reference for the tracing overhead, and pass
// 1 traced.
func (o options) passes() int {
	switch {
	case o.trace:
		return 2
	case o.smoke:
		return 1
	}
	return 3
}

// rounds is the fixed number of measured rounds per pass.
func (o options) rounds() int { return o.seconds }

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "gtsperf:", err)
		os.Exit(2)
	}
	if o.child {
		res, err := runPass(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gtsperf: %s pass %d: %v\n", o.workload, o.pass, err)
			os.Exit(1)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "gtsperf:", err)
			os.Exit(1)
		}
		return
	}
	_, ok, err := drive(o, spawnPass, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gtsperf:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// workloadResult is one workload's part of a run: the reported metrics and
// the passes they were computed from.
type workloadResult struct {
	Workload  string             `json:"workload"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Rounds    int                `json:"rounds_pooled"`
	Metrics   map[string]float64 `json:"metrics"`
	Errors    []string           `json:"errors,omitempty"`
	Passes    []*passResult      `json:"passes"`
}

// drive is the parent process. It runs the passes of every selected
// workload through spawn — pass by pass, so that a bad stretch on a shared
// machine taints at most one pass of each — then pools the results, prints
// them to w and records them. ok reports that no operation failed.
func drive(o options, spawn func(o options, name string, pass int) (*passResult, error), w io.Writer) (results map[string]*workloadResult, ok bool, err error) {
	names := workloadNames
	if o.workload != "all" {
		if _, err := newWorkload(o.workload); err != nil {
			return nil, false, err
		}
		names = []string{o.workload}
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, false, err
	}
	stamp := newEnvStamp(o)
	results = make(map[string]*workloadResult)
	for pass := 0; pass < o.passes(); pass++ {
		for _, name := range names {
			res, err := spawn(o, name, pass)
			if err != nil {
				return nil, false, err
			}
			if results[name] == nil {
				results[name] = &workloadResult{Workload: name}
			}
			results[name].Passes = append(results[name].Passes, res)
		}
	}

	ok, err = report(w, o, stamp, names, results)
	if err != nil {
		return nil, false, err
	}
	if o.record != "" {
		rec := struct {
			Env       envStamp                   `json:"env"`
			Workloads map[string]*workloadResult `json:"workloads"`
		}{stamp, results}
		b, err := json.MarshalIndent(rec, "", " ")
		if err != nil {
			return nil, false, err
		}
		if err := os.WriteFile(o.record, b, 0o644); err != nil {
			return nil, false, err
		}
	}
	return results, ok, nil
}

// report summarizes every workload and prints the run: the stamp and one
// line per pass as comments, every metric by name with its unit, and as the
// last line the JSON object the driver reads. With more than one workload
// the object's metric names carry the workload as a prefix.
func report(w io.Writer, o options, stamp envStamp, names []string, results map[string]*workloadResult) (ok bool, err error) {
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	final := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Metrics: make(map[string]metricValue)}
	fmt.Fprintf(w, "# gtsperf tree=%s git=%s dirty=%v %s nproc=%d gomaxprocs=%d kernel=%s\n",
		stamp.Tree, stamp.GitRev, stamp.GitDirty, stamp.GoVersion, stamp.NumCPU, stamp.GOMAXPROCS, stamp.Kernel)
	fmt.Fprintf(w, "# graph=%s seed=%d passes=%d rounds_per_pass=%d traced=%v\n",
		o.graph(), o.seed, o.passes(), o.rounds(), o.trace)
	for _, name := range names {
		r := results[name]
		if o.trace {
			r.summarizeTraced()
		} else {
			r.summarize()
		}
		for _, p := range r.Passes {
			fmt.Fprintf(w, "# %s pass %d: traced=%v setup_s=%.3f rounds=%d steal_ratio=%.4f config_keys_ignored=%v\n",
				name, p.Pass, p.Traced, p.SetupS, len(p.Rounds), p.StealRatio, p.ConfigKeysIgnored)
		}
		for _, e := range r.Errors {
			fmt.Fprintf(w, "# %s FAILED: %s\n", name, e)
		}
		fmt.Fprintf(w, "%s attempted %d failed %d rounds_pooled %d\n", name, r.Attempted, r.Failed, r.Rounds)
		for _, d := range defs {
			v, present := r.Metrics[d.Name]
			if !present || math.IsNaN(v) || math.IsInf(v, 0) {
				return false, fmt.Errorf("%s: metric %s missing or not finite", name, d.Name)
			}
			fmt.Fprintf(w, "%s %s %s %s\n", name, d.Name, strconv.FormatFloat(v, 'g', -1, 64), d.Unit)
			key := d.Name
			if len(names) > 1 {
				key = name + "/" + d.Name
			}
			final.Metrics[key] = metricValue{v, d.Unit}
		}
		final.Attempted += r.Attempted
		final.Failed += r.Failed
	}
	final.Correct = final.Failed == 0
	line, err := json.Marshal(final)
	if err != nil {
		return false, err
	}
	fmt.Fprintln(w, string(line))
	return final.Correct, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// childOptions derives the options of one pass from the run's: only the
// last pass of a traced run is traced, and the last pass of any run makes
// the end-of-run checks.
func childOptions(o options, name string, pass int) options {
	c := o
	c.child, c.workload, c.pass = true, name, pass
	c.last = pass == o.passes()-1
	c.trace = o.trace && c.last
	return c
}

// spawnPass runs one pass of one workload in a child process of its own, so
// that set-up, heap and resident set belong to that workload alone.
func spawnPass(o options, name string, pass int) (*passResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	c := childOptions(o, name, pass)
	args := []string{"-child", "-workload", c.workload, "-pass", strconv.Itoa(c.pass),
		"-seed", strconv.FormatInt(c.seed, 10), "-seconds", strconv.Itoa(c.seconds),
		"-smoke=" + strconv.FormatBool(c.smoke), "-out", c.out, "-trace", strconv.Itoa(btoi(c.trace)),
		"-last=" + strconv.FormatBool(c.last), "-corrupt=" + strconv.FormatBool(c.corrupt)}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s pass %d: %w", name, pass, err)
	}
	var res passResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("%s pass %d: bad result: %w", name, pass, err)
	}
	return &res, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// pool gathers one figure per measured round over the given passes.
func pool(passes []*passResult, f func(roundStat) float64) []float64 {
	var xs []float64
	for _, p := range passes {
		for _, r := range p.Rounds {
			xs = append(xs, f(r))
		}
	}
	return xs
}

// over gathers one figure per pass.
func over(passes []*passResult, f func(*passResult) float64) []float64 {
	xs := make([]float64, len(passes))
	for i, p := range passes {
		xs[i] = f(p)
	}
	return xs
}

func (r *workloadResult) count() {
	for _, p := range r.Passes {
		r.Attempted += p.Attempted
		r.Failed += p.Failed
		r.Rounds += len(p.Rounds)
		r.Errors = append(r.Errors, p.Errors...)
	}
}

// summarize computes the five end-to-end metrics from untraced passes.
//
// round_ms_ref is at reference machine speed (see calibrator): the median
// of the pooled rounds, each divided by the speed factor measured around it.
// setup_s is the raw clock, and the minimum over passes: interference only
// ever adds time. alloc_mb_per_round is the mean of the passes' per-round
// means, live_heap_mb the median over passes.
func (r *workloadResult) summarize() {
	r.count()
	r.Metrics = map[string]float64{
		"setup_s":           minOf(over(r.Passes, func(p *passResult) float64 { return p.SetupS })),
		"round_ms_ref":      median(pool(r.Passes, refMs)),
		"virt_ms_per_round": median(pool(r.Passes, func(s roundStat) float64 { return s.VirtMs })),
		"alloc_mb_per_round": mean(over(r.Passes, func(p *passResult) float64 {
			return mean(pool([]*passResult{p}, func(s roundStat) float64 { return s.AllocMB }))
		})),
		"live_heap_mb": median(over(r.Passes, func(p *passResult) float64 { return p.LiveHeapMB })),
	}
}

func refMs(s roundStat) float64 { return s.RefMs }

func wallMs(s roundStat) float64 { return s.WallMs }

// summarizeTraced reports the per-layer metrics of the traced pass. The
// process figures are raw wall-clock figures of its rounds; the tracing
// overhead compares its round_ms_ref with that of the untraced pass that
// ran just before it.
func (r *workloadResult) summarizeTraced() {
	r.count()
	untraced, traced := r.Passes[:len(r.Passes)-1], r.Passes[len(r.Passes)-1:]
	r.Metrics = make(map[string]float64)
	for _, d := range perLayer {
		r.Metrics[d.Name] = traced[0].Layer[d.Name]
	}
	wall := pool(traced, wallMs)
	cpu := mean(pool(traced, func(s roundStat) float64 { return s.CPUMs }))
	r.Metrics["run.round_ms_p10"] = quantile(wall, 0.10)
	r.Metrics["run.round_ms_p50"] = median(wall)
	r.Metrics["run.round_ms_p70"] = quantile(wall, 0.70)
	r.Metrics["run.round_ms_max"] = maxOf(wall)
	r.Metrics["run.cpu_ms_per_round"] = cpu
	r.Metrics["run.cores_used"] = ratio(cpu, mean(wall))
	r.Metrics["run.gc_cycles_per_round"] = mean(pool(traced, func(s roundStat) float64 { return s.GCs }))
	r.Metrics["run.gc_pause_ms_per_round"] = mean(pool(traced, func(s roundStat) float64 { return s.GCPauseMs }))
	r.Metrics["run.allocs_per_round"] = mean(pool(traced, func(s roundStat) float64 { return s.Allocs }))
	r.Metrics["run.peak_rss_mb"] = traced[0].PeakRSSMB
	r.Metrics["env.steal_ratio"] = traced[0].StealRatio
	r.Metrics["env.speed_factor"] = median(pool(traced, func(s roundStat) float64 { return (s.SpeedBefore + s.SpeedAfter) / 2 }))
	r.Metrics["trace.overhead_ratio"] = ratio(median(pool(traced, refMs)), median(pool(untraced, refMs)))
}
