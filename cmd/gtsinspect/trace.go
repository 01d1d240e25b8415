package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/trace"
)

// traceInspect implements `gtsinspect trace [-width N] <file>`: it parses an
// exported Chrome trace_event JSON trace, prints per-kind busy time, and
// renders the ASCII stream timeline. Any other input is an error.
func traceInspect(args []string) {
	fs := flag.NewFlagSet("gtsinspect trace", flag.ExitOnError)
	width := fs.Int("width", 80, "timeline width in character buckets")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: gtsinspect trace [-width N] <trace.json>")
		os.Exit(2)
	}
	raw, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "gtsinspect:", err)
		os.Exit(1)
	}
	rec, err := trace.Parse(raw)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gtsinspect:", err)
		os.Exit(1)
	}
	sum := rec.Summary()
	fmt.Printf("trace:     %s\n", fs.Arg(0))
	if id := rec.ID(); id != "" {
		fmt.Printf("id:        %s\n", id)
	}
	fmt.Printf("spans:     %d\n", sum.Spans)
	fmt.Printf("makespan:  %v\n", sum.Makespan)
	for k := 0; k < trace.NumKinds; k++ {
		if busy := sum.Busy[k]; busy > 0 {
			fmt.Printf("%-10s %v\n", trace.Kind(k).String()+":", busy)
		}
	}
	fmt.Println()
	if err := rec.RenderTimeline(os.Stdout, *width); err != nil {
		fmt.Fprintln(os.Stderr, "gtsinspect:", err)
		os.Exit(1)
	}
}
