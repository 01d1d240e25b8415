// Package experiments regenerates every table and figure of the paper's
// evaluation (§7 and the appendices) over the scaled-down proxy datasets.
// Each experiment returns a Table that cmd/gtsbench prints and that the
// root bench_test.go drives; EXPERIMENTS.md records the paper-vs-measured
// comparison.
//
// Scaling discipline: a dataset shrunk by 2^k runs against hardware whose
// *capacities* (device memory, main memory, cluster heaps) are divided by
// the dataset's scale factor while bandwidths stay at the paper's values.
// Capacity crossovers (O.O.M. entries, strategy switches) therefore land
// where the paper's do, and virtual times extrapolate to paper scale by
// multiplying back.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/csr"
	"repro/internal/graphgen"
	"repro/internal/sim"
	"repro/internal/slottedpage"
)

// Table is one experiment's formatted result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Write renders the table as aligned text.
func (t *Table) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.Header)); err != nil {
		return err
	}
	total := len(widths) - 1
	for _, wd := range widths {
		total += wd + 1
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteCSV renders the table as CSV (no notes).
func (t *Table) WriteCSV(w io.Writer) error {
	rows := append([][]string{t.Header}, t.Rows...)
	for _, row := range rows {
		esc := make([]string, len(row))
		for i, c := range row {
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			esc[i] = c
		}
		if _, err := fmt.Fprintln(w, strings.Join(esc, ",")); err != nil {
			return err
		}
	}
	return nil
}

// Options scale the harness. The zero value uses defaults.
type Options struct {
	// Shrink is the power-of-two dataset down-scaling (default 13; the
	// benches use larger shrinks for speed).
	Shrink int
	// PRIterations is the PageRank iteration count (paper: 10).
	PRIterations int
}

func (o Options) withDefaults() Options {
	if o.Shrink == 0 {
		o.Shrink = 13
	}
	if o.PRIterations == 0 {
		o.PRIterations = 10
	}
	return o
}

// Runner executes experiments, caching generated graphs across them.
type Runner struct {
	opts  Options
	csrs  map[string]*csr.Graph
	revs  map[string]*csr.Graph
	pages map[string]*slottedpage.Graph
}

// New returns a runner.
func New(opts Options) *Runner {
	return &Runner{
		opts:  opts.withDefaults(),
		csrs:  map[string]*csr.Graph{},
		revs:  map[string]*csr.Graph{},
		pages: map[string]*slottedpage.Graph{},
	}
}

// IDs lists every experiment in paper order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return registry[ids[i]].order < registry[ids[j]].order })
	return ids
}

// Describe returns an experiment's one-line description.
func Describe(id string) string {
	if e, ok := registry[id]; ok {
		return e.desc
	}
	return ""
}

type experiment struct {
	order int
	desc  string
	run   func(r *Runner) (*Table, error)
}

var registry = map[string]experiment{
	"table1":    {10, "transfer:kernel time ratios for BFS and PageRank on the real-graph proxies", (*Runner).table1},
	"table2":    {20, "three (p,q) configurations of the 6-byte physical ID", (*Runner).table2},
	"table3":    {30, "dataset statistics: #SP and #LP per configuration", (*Runner).table3},
	"table4":    {40, "WA size versus topology size per algorithm", (*Runner).table4},
	"table5":    {50, "TOTEM GPU%:CPU% partition ratios", (*Runner).table5},
	"fig4":      {60, "per-stream copy/kernel timeline for BFS and PageRank (16 streams)", (*Runner).fig4},
	"fig6":      {70, "GTS vs GraphX/Giraph/PowerGraph/Naiad (BFS, PageRank x10)", (*Runner).fig6},
	"fig7":      {80, "GTS vs MTGL/Galois/Ligra/Ligra+ (BFS, PageRank x10)", (*Runner).fig7},
	"fig8":      {90, "GTS vs MapGraph/CuSha/TOTEM (BFS, PageRank x10)", (*Runner).fig8},
	"fig9":      {100, "Strategy-P vs Strategy-S across storage types (RMAT30)", (*Runner).fig9},
	"fig10":     {110, "elapsed time vs number of GPU streams (RMAT26-29)", (*Runner).fig10},
	"fig11":     {120, "BFS page-cache effectiveness: time and hit rate vs cache size", (*Runner).fig11},
	"fig13":     {130, "additional algorithms: SSSP, CC, BC across engines", (*Runner).fig13},
	"fig14":     {140, "micro-level technique vs graph density (vertex/edge/hybrid)", (*Runner).fig14},
	"costmodel": {150, "Eq.1/Eq.2 analytic predictions vs simulation (the paper's 7.5 checks)", (*Runner).costmodel},
	"xstream":   {160, "GTS page streaming vs X-Stream edge streaming (related work, 8)", (*Runner).xstream},
	"scaleup":   {165, "speedup from adding a GPU or an SSD (the paper's 1 scalability claim)", (*Runner).scaleup},
	"ablations": {170, "design-choice ablations: GPU thermal throttling, Pregel combiner, Ligra+ compression", (*Runner).ablations},
}

// Run executes one experiment by ID.
func (r *Runner) Run(id string) (*Table, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	return e.run(r)
}

// dataset fetches metadata, panicking on registry bugs.
func dataset(name string) graphgen.Dataset {
	d, ok := graphgen.ByName(name)
	if !ok {
		panic("experiments: unknown dataset " + name)
	}
	return d
}

// csrOf generates (and caches) the proxy CSR graph.
func (r *Runner) csrOf(name string) (*csr.Graph, error) {
	if g, ok := r.csrs[name]; ok {
		return g, nil
	}
	g, err := dataset(name).Generate(r.opts.Shrink)
	if err != nil {
		return nil, err
	}
	r.csrs[name] = g
	return g, nil
}

// revOf returns the cached transpose.
func (r *Runner) revOf(name string) (*csr.Graph, error) {
	if g, ok := r.revs[name]; ok {
		return g, nil
	}
	g, err := r.csrOf(name)
	if err != nil {
		return nil, err
	}
	rev := g.Transpose()
	r.revs[name] = rev
	return rev, nil
}

// factor is the hardware down-scaling for a dataset at the runner's shrink.
func (r *Runner) factor(name string) int64 {
	return int64(dataset(name).ScaleFactor(r.opts.Shrink))
}

// fmtTime renders a virtual duration the way the paper's figures label
// elapsed times.
func fmtTime(t sim.Time) string {
	s := t.Seconds()
	switch {
	case s >= 100:
		return fmt.Sprintf("%.0fs", s)
	case s >= 1:
		return fmt.Sprintf("%.1fs", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.1fms", s*1e3)
	default:
		return fmt.Sprintf("%.0fus", s*1e6)
	}
}

// extrapolate scales a proxy time back to paper scale.
func extrapolate(t sim.Time, factor int64) sim.Time { return t * sim.Time(factor) }

// oom is the figure label for out-of-memory outcomes.
const oom = "O.O.M."

// fmtBytes renders byte counts human-readably.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
