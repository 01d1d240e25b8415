// Command gtsinspect prints the structure of a slotted-page store: layout
// configuration, page counts, degree statistics and the largest vertices'
// LP runs — the quantities behind the paper's Tables 2-4.
//
// Usage:
//
//	gtsinspect graph.gts
//
// It also renders exported run traces (see gts -trace and gtsd's
// /debug/trace/{id}) as an ASCII timeline:
//
//	gtsinspect trace run.json
//	gtsinspect trace -width 120 run.json
package main

import (
	"flag"
	"fmt"
	"os"

	gts "repro"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "trace" {
		traceInspect(os.Args[2:])
		return
	}
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: gtsinspect <file.gts> | gtsinspect trace <trace.json>")
		os.Exit(2)
	}
	g, err := gts.LoadGraph(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "gtsinspect:", err)
		os.Exit(1)
	}
	cfg := g.Config()
	fmt.Printf("store:      %s\n", flag.Arg(0))
	fmt.Printf("layout:     (p=%d,q=%d), %d-byte pages, %d-byte VID, %d-byte OFF\n",
		cfg.PIDBytes, cfg.SlotBytes, cfg.PageSize, cfg.VIDBytes, cfg.OffBytes)
	fmt.Printf("capacity:   %d pages x %d slots (theoretical max page %d bytes)\n",
		cfg.MaxPages(), cfg.MaxSlotNumber(), cfg.MaxTheoreticalPageSize())
	fmt.Printf("vertices:   %d\n", g.NumVertices())
	fmt.Printf("edges:      %d\n", g.NumEdges())
	fmt.Printf("pages:      %d SP + %d LP = %d (%d bytes of topology)\n",
		g.NumSP(), g.NumLP(), g.NumPages(), g.TopologyBytes())

	// Degree statistics from the pages themselves.
	var maxDeg, slots int
	var maxVid uint64
	for _, pid := range g.SPIDs() {
		pg := g.Page(pid)
		n := pg.NumSlots()
		slots += n
		for s := 0; s < n; s++ {
			vid, _ := pg.Slot(s)
			if d := pg.Adj(s).Len(); d > maxDeg {
				maxDeg, maxVid = d, vid
			}
		}
	}
	fmt.Printf("SP slots:   %d (avg %.1f per page)\n", slots, avg(slots, g.NumSP()))
	if g.NumLP() > 0 {
		runs := map[uint64]int{}
		for _, pid := range g.LPIDs() {
			runs[g.RVT(pid).StartVID]++
		}
		fmt.Printf("LP runs:    %d large vertices\n", len(runs))
		longest, owner := 0, uint64(0)
		for v, n := range runs {
			if n > longest || (n == longest && v < owner) {
				longest, owner = n, v
			}
		}
		fmt.Printf("longest LP: vertex %d across %d pages (degree %d)\n",
			owner, longest, g.DegreeOf(owner))
	} else {
		fmt.Printf("max degree: %d (vertex %d)\n", maxDeg, maxVid)
	}
}

func avg(total, count int) float64 {
	if count == 0 {
		return 0
	}
	return float64(total) / float64(count)
}
