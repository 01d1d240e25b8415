package main

import (
	"fmt"
	"os"
	"strings"

	gts "repro"
	"repro/internal/trace"
)

// traceAlgos maps -trace-algo names to runs through the public System API.
var traceAlgos = map[string]func(sys *gts.System, iters int) error{
	"bfs": func(sys *gts.System, _ int) error {
		_, err := sys.BFS(0)
		return err
	},
	"pagerank": func(sys *gts.System, iters int) error {
		_, err := sys.PageRank(0.85, iters)
		return err
	},
	"cc": func(sys *gts.System, _ int) error {
		_, err := sys.CC()
		return err
	},
	"bc": func(sys *gts.System, _ int) error {
		_, err := sys.BC(0)
		return err
	},
}

// traceAlgoNames lists the -trace-algo choices in usage order.
var traceAlgoNames = []string{"bfs", "pagerank", "cc", "bc"}

// runTrace executes one traced run of an algorithm over a generated dataset
// and writes the recorder to out — Chrome trace_event JSON (Perfetto /
// chrome://tracing loadable), or span-per-line JSONL when out ends in
// ".jsonl". The engine is deterministic, so the file is byte-identical across
// reruns.
func runTrace(dataset string, shrink int, algo string, iters int, out string) error {
	run, ok := traceAlgos[algo]
	if !ok {
		return fmt.Errorf("unknown -trace-algo %q (want %s)", algo, strings.Join(traceAlgoNames, "|"))
	}
	g, err := gts.Generate(dataset, shrink)
	if err != nil {
		return err
	}
	rec := trace.NewWithID(fmt.Sprintf("%s-%s@%d", algo, dataset, shrink))
	sys, err := gts.NewSystem(g, gts.Config{Trace: rec})
	if err != nil {
		return err
	}
	if err := run(sys, iters); err != nil {
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if strings.HasSuffix(out, ".jsonl") {
		err = rec.WriteJSONL(f)
	} else {
		err = rec.WriteChrome(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	sum := rec.Summary()
	fmt.Printf("gtsbench: traced %s over %s@%d: %d spans, %v makespan -> %s\n",
		algo, dataset, shrink, sum.Spans, sum.Makespan, out)
	return nil
}
