package main

import (
	"fmt"
	"os"

	gts "repro"
	"repro/internal/trace"
)

// runTrace executes one traced run of any algorithm in the table (iters
// bounds the iterative ones; the rest take their defaults) over a generated
// dataset and writes the recorder to out as Chrome trace_event JSON
// (Perfetto / chrome://tracing loadable). The engine is deterministic, so
// the file is byte-identical across reruns.
func runTrace(dataset string, shrink int, algo string, iters int, out string) error {
	g, err := gts.Generate(dataset, shrink)
	if err != nil {
		return err
	}
	rec := trace.NewWithID(fmt.Sprintf("%s-%s@%d", algo, dataset, shrink))
	sys, err := gts.NewSystem(g, gts.Config{Trace: rec})
	if err != nil {
		return err
	}
	if _, err := sys.Run(algo, gts.Params{Iterations: iters}); err != nil {
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	err = rec.WriteChrome(f)
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
