// Command gtsbench regenerates the paper's tables and figures over the
// scaled-down proxy datasets. (The repository's benchmark is bench/; this
// command measures nothing on the host clock.)
//
// Usage:
//
//	gtsbench -exp all                 # every experiment, paper order
//	gtsbench -exp fig6 -shrink 13     # one experiment at a given scale
//	gtsbench -exp fig9 -csv out/      # also write CSV files
//
// One traced run of any algorithm is gts -trace.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment ID or 'all' ("+strings.Join(experiments.IDs(), ", ")+")")
	shrink := flag.Int("shrink", 13, "dataset down-scaling as a power of two")
	iters := flag.Int("iters", 10, "PageRank iterations (paper: 10)")
	csvDir := flag.String("csv", "", "directory to additionally write per-experiment CSV files to")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Printf("%-10s %s\n", id, experiments.Describe(id))
		}
		return
	}

	r := experiments.New(experiments.Options{Shrink: *shrink, PRIterations: *iters})
	ids := experiments.IDs()
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
	}
	for _, id := range ids {
		tab, err := r.Run(strings.TrimSpace(id))
		if err != nil {
			fmt.Fprintf(os.Stderr, "gtsbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		if err := tab.Write(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "gtsbench: %v\n", err)
			os.Exit(1)
		}
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "gtsbench: %v\n", err)
				os.Exit(1)
			}
			f, err := os.Create(filepath.Join(*csvDir, tab.ID+".csv"))
			if err != nil {
				fmt.Fprintf(os.Stderr, "gtsbench: %v\n", err)
				os.Exit(1)
			}
			if err := tab.WriteCSV(f); err != nil {
				f.Close()
				fmt.Fprintf(os.Stderr, "gtsbench: %v\n", err)
				os.Exit(1)
			}
			f.Close()
		}
	}
}
