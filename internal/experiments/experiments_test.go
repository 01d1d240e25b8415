package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"
)

// testRunner uses tiny proxies so the full suite stays fast.
func testRunner() *Runner {
	return New(Options{Shrink: 17, PRIterations: 3})
}

func TestIDsStable(t *testing.T) {
	ids := IDs()
	want := []string{"table1", "table2", "table3", "table4", "table5", "fig4", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig13", "fig14", "costmodel", "xstream", "scaleup", "ablations"}
	if len(ids) != len(want) {
		t.Fatalf("IDs = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs[%d] = %s, want %s", i, ids[i], want[i])
		}
	}
	for _, id := range ids {
		if Describe(id) == "" {
			t.Errorf("no description for %s", id)
		}
	}
	if Describe("nope") != "" {
		t.Error("description for unknown id")
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := testRunner().Run("nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestAllExperimentsProduceTables(t *testing.T) {
	r := testRunner()
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			tab, err := r.Run(id)
			if err != nil {
				t.Fatal(err)
			}
			if tab.ID != id || len(tab.Header) == 0 || len(tab.Rows) == 0 {
				t.Fatalf("degenerate table %+v", tab)
			}
			for _, row := range tab.Rows {
				if len(row) != len(tab.Header) {
					t.Fatalf("row width %d != header %d: %v", len(row), len(tab.Header), row)
				}
			}
			var buf bytes.Buffer
			if err := tab.Write(&buf); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), tab.Title) {
				t.Error("rendered output missing title")
			}
			buf.Reset()
			if err := tab.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
			if lines := strings.Count(buf.String(), "\n"); lines != len(tab.Rows)+1 {
				t.Errorf("CSV has %d lines, want %d", lines, len(tab.Rows)+1)
			}
		})
	}
}

func TestTable2ExactPaperValues(t *testing.T) {
	tab, err := testRunner().Run("table2")
	if err != nil {
		t.Fatal(err)
	}
	flat := ""
	for _, row := range tab.Rows {
		flat += strings.Join(row, " ") + "\n"
	}
	for _, want := range []string{"64K", "4B", "80.0GB", "16M", "320.0MB", "1.2MB"} {
		if !strings.Contains(flat, want) {
			t.Errorf("table2 missing %q:\n%s", want, flat)
		}
	}
}

func TestFig6HasOOMAndGTSCompletes(t *testing.T) {
	tab, err := testRunner().Run("fig6")
	if err != nil {
		t.Fatal(err)
	}
	sawOOM := false
	for _, row := range tab.Rows {
		for i, cell := range row[2 : len(row)-1] {
			if cell == oom {
				sawOOM = true
				_ = i
			}
		}
		// GTS (last column) must always complete.
		if row[len(row)-1] == oom {
			t.Errorf("GTS OOMed on %s/%s", row[0], row[1])
		}
	}
	if !sawOOM {
		t.Error("no baseline hit O.O.M. — scaling is off")
	}
}

func TestFig9StorageOrdering(t *testing.T) {
	tab, err := testRunner().Run("fig9")
	if err != nil {
		t.Fatal(err)
	}
	// Row order: in-memory, 2 SSDs, 1 SSD, 2 HDDs. HDD PageRank must be
	// the slowest PageRank-P cell.
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestCSVQuoting(t *testing.T) {
	tab := &Table{Header: []string{"a", "b"}, Rows: [][]string{{"x,y", "q\"z"}}}
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"x,y\"") || !strings.Contains(buf.String(), "\"q\"\"z\"") {
		t.Errorf("CSV quoting broken: %s", buf.String())
	}
}

func TestRatioFormatting(t *testing.T) {
	if got := ratio(1, 3); got != "1:3" {
		t.Errorf("ratio = %s", got)
	}
	if got := ratio(4, 2); got != "2:1" {
		t.Errorf("ratio = %s", got)
	}
	if got := ratio(0, 2); got != "n/a" {
		t.Errorf("ratio = %s", got)
	}
}

func TestFmtHelpers(t *testing.T) {
	if fmtCount(1<<32) != "4B" || fmtCount(1<<20) != "1M" || fmtCount(2048) != "2K" || fmtCount(12) != "12" {
		t.Error("fmtCount wrong")
	}
	if fmtBytes(1<<30) != "1.0GB" || fmtBytes(512) != "512B" {
		t.Error("fmtBytes wrong")
	}
}

func TestHarnessDeterministic(t *testing.T) {
	// Two fresh runners at the same options produce byte-identical tables.
	a, err := New(Options{Shrink: 17, PRIterations: 3}).Run("table1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Options{Shrink: 17, PRIterations: 3}).Run("table1")
	if err != nil {
		t.Fatal(err)
	}
	var bufA, bufB bytes.Buffer
	if err := a.Write(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(&bufB); err != nil {
		t.Fatal(err)
	}
	if bufA.String() != bufB.String() {
		t.Error("same options produced different tables")
	}
}

// TestStoragePathFigureShapes pins, at the scale results/gtsbench.txt is
// published at, the two paper shapes that depend on the storage path keeping
// what it holds and asking the disks in order: Fig. 11's hit rate grows with
// the cache from its second size on and falls as graphs grow, and Fig. 9's
// strategies converge once two HDDs are the bottleneck.
func TestStoragePathFigureShapes(t *testing.T) {
	r := New(Options{Shrink: 13, PRIterations: 10})
	fig11, err := r.Run("fig11")
	if err != nil {
		t.Fatal(err)
	}
	// Columns: cache size, then (time, hit%) per dataset, smallest graph first.
	hit := func(row, ds int) int {
		n, err := strconv.Atoi(strings.TrimSuffix(fig11.Rows[row][2+2*ds], "%"))
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	for row := range fig11.Rows {
		for ds := 0; ds < 4; ds++ {
			if row > 0 && hit(row, ds) < hit(row-1, ds) {
				t.Errorf("fig11 %s: hit rate falls from %d%% to %d%% as the cache grows to %s MB",
					fig11.Header[1+2*ds], hit(row-1, ds), hit(row, ds), fig11.Rows[row][0])
			}
			if ds > 0 && hit(row, ds) > hit(row, ds-1) {
				t.Errorf("fig11 at %s MB: %s hits %d%%, more than the smaller graph's %d%%",
					fig11.Rows[row][0], fig11.Header[1+2*ds], hit(row, ds), hit(row, ds-1))
			}
		}
	}
	if hit(1, 0) == 0 {
		t.Error("fig11 RMAT26: no cache hits at the second-smallest cache")
	}

	fig9, err := r.Run("fig9")
	if err != nil {
		t.Fatal(err)
	}
	hdd := fig9.Rows[3] // 2 HDDs: BFS P, BFS S, PageRank P, PageRank S
	p, errP := time.ParseDuration(hdd[1])
	s, errS := time.ParseDuration(hdd[2])
	if errP != nil || errS != nil {
		t.Fatalf("fig9 2-HDD BFS cells %q, %q: %v, %v", hdd[1], hdd[2], errP, errS)
	}
	if diff := (p - s).Abs(); diff*20 > min(p, s) {
		t.Errorf("fig9 2 HDDs: BFS Strategy-P %v and Strategy-S %v are more than 5%% apart", p, s)
	}
}
