package slottedpage

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
)

// buildDigest hashes everything Build produces: the counts, every page's
// bytes and checksum, the RVT, the kind table, the SP/LP ID lists and both
// home tables.
func buildDigest(g *Graph) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(g.numVertices)
	put(g.numEdges)
	put(uint64(len(g.pages)))
	for pid, pg := range g.pages {
		h.Write(pg)
		put(uint64(g.sums[pid]))
		put(g.rvt[pid].StartVID)
		put(uint64(int64(g.rvt[pid].LPSeq)))
		put(uint64(g.kinds[pid]))
	}
	for _, ids := range [][]PageID{g.spIDs, g.lpIDs} {
		put(uint64(len(ids)))
		for _, pid := range ids {
			put(uint64(pid))
		}
	}
	for v := range g.homePID {
		put(uint64(g.homePID[v])<<32 | uint64(g.homeSlot[v]))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// pinnedBuilds is every build whose digest testdata/build_digests.txt
// pins: RMAT27@11 in 4 KB (2,2) pages, and codecSource under every config
// TestAdjDecodeDifferential sweeps, drawn with that test's seeds.
func pinnedBuilds(t *testing.T) map[string]*Graph {
	t.Helper()
	_, rmat := rmatPages(t, 11)
	out := map[string]*Graph{"RMAT27@11(p=2,q=2,page=4096)": rmat}
	for _, cfg := range codecConfigs() {
		label := fmt.Sprintf("(p=%d,q=%d,vid=%d,off=%d,sz=%d)", cfg.PIDBytes, cfg.SlotBytes, cfg.VIDBytes, cfg.OffBytes, cfg.SizeBytes)
		r := rand.New(rand.NewSource(int64(cfg.PIDBytes*8 + cfg.SlotBytes)))
		g, err := Build(codecSource(cfg, r), cfg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		out[label] = g
	}
	return out
}

// TestBuildMatchesPinnedDigests holds Build to the bytes it produced before
// its page writer was rewritten: pages, checksums, RVT and home tables,
// digest for digest. The digests are never re-recorded — the layout is a
// pure function of the degree sequence, and WAL recovery and every golden
// downstream rely on it not moving.
func TestBuildMatchesPinnedDigests(t *testing.T) {
	f, err := os.Open("testdata/build_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if label, digest, ok := strings.Cut(sc.Text(), " "); ok {
			want[label] = digest
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	builds := pinnedBuilds(t)
	if len(want) != len(builds) {
		t.Errorf("%d pinned digests for %d builds", len(want), len(builds))
	}
	for label, g := range builds {
		if got := buildDigest(g); got != want[label] {
			t.Errorf("%s: build digest %s, pinned %q", label, got, want[label])
		}
	}
}

// TestBuildSameBytesAtAnyWorkerCount: Build's pages come out the same
// whatever GOMAXPROCS is, 1 to 5, over random graphs with LP runs, empty
// rows and vertex counts no worker count divides — through a plain Source
// and through the mutation path's mirror, which hands rows over as slices.
func TestBuildSameBytesAtAnyWorkerCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cfg := ScaledConfig(2, 3, 512)
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 60*int(seed) + 1 // 61, 121, 181, 241: prime to 2, 3, 4 and 5
		adj := make([][]uint64, n)
		var edges uint64
		for v := range adj {
			deg := rng.Intn(12)
			switch rng.Intn(10) {
			case 0:
				deg = 0
			case 1:
				deg = cfg.lpEntriesPerPage()*(1+rng.Intn(3)) + rng.Intn(5) // an LP run
			}
			for i := 0; i < deg; i++ {
				adj[v] = append(adj[v], uint64(rng.Intn(n)))
			}
			edges += uint64(deg)
		}
		runtime.GOMAXPROCS(1)
		want, err := Build(adjSource{adj: adj}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want.NumLP() == 0 {
			t.Fatalf("seed %d: no large pages", seed)
		}
		for procs := 1; procs <= 5; procs++ {
			runtime.GOMAXPROCS(procs)
			for _, src := range []Source{adjSource{adj: adj}, mirrorSource{adj: adj, edges: edges}} {
				got, err := Build(src, cfg)
				if err != nil {
					t.Fatal(err)
				}
				graphsIdentical(t, got, want, fmt.Sprintf("seed %d, %d workers, %T", seed, procs, src))
			}
		}
	}
}
