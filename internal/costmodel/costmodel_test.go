package costmodel

import (
	"testing"

	"repro/internal/graphgen"
	"repro/internal/hw"
	"repro/internal/kernels"
	"repro/internal/sim"
	"repro/internal/slottedpage"

	"repro/internal/core"
)

func TestPageRankLikeBackOfEnvelope(t *testing.T) {
	// The paper's §7.5 check: RMAT30's 114 GB topology over 10 iterations
	// at c2 = 6 GB/s is ~190 s; one iteration is therefore ~19 s plus the
	// WA terms. The model must reproduce that arithmetic.
	in := Inputs{
		WABytes:        4 << 30,   // PageRank WA for RMAT30 (Table 4)
		SPBytes:        114 << 30, // topology
		NumSP:          1786,      // Table 3
		GPUs:           1,
		KernelPageTime: 10 * sim.Millisecond,
		CallOverhead:   8 * sim.Microsecond,
	}
	got := PageRankLike(in, hw.PCIe3x16())
	// Dominant term: 114 GiB / 6 GB/s ~ 20.4 s; plus 2*4 GiB/16 GB/s ~ 0.54 s.
	lo, hi := sim.Seconds(20), sim.Seconds(22)
	if got < lo || got > hi {
		t.Errorf("Eq.1 = %v, want in [%v, %v]", got, lo, hi)
	}
}

func TestPageRankLikeScalesWithGPUs(t *testing.T) {
	in := Inputs{WABytes: 1 << 30, SPBytes: 64 << 30, NumSP: 1000, GPUs: 1, CallOverhead: sim.Microsecond}
	one := PageRankLike(in, hw.PCIe3x16())
	in.GPUs = 2
	two := PageRankLike(in, hw.PCIe3x16())
	if two >= one {
		t.Errorf("2 GPUs (%v) not faster than 1 (%v)", two, one)
	}
	// The 2|WA|/c1 term does not shrink with N, so speedup is sublinear.
	if two*2 <= one {
		t.Errorf("speedup superlinear: %v vs %v", two, one)
	}
}

func TestBFSLikeCachingAndSkew(t *testing.T) {
	levels := []LevelInputs{
		{SPBytes: 1 << 30, NumSP: 1024},
		{SPBytes: 8 << 30, NumSP: 8192},
		{SPBytes: 2 << 30, NumSP: 2048},
	}
	base := BFSLike(1<<28, levels, 1, 1, 0, sim.Microsecond, hw.PCIe3x16())
	cached := BFSLike(1<<28, levels, 1, 1, 0.5, sim.Microsecond, hw.PCIe3x16())
	if cached >= base {
		t.Errorf("cache hit rate did not help: %v vs %v", cached, base)
	}
	skewed := BFSLike(1<<28, levels, 2, 0.5, 0, sim.Microsecond, hw.PCIe3x16())
	balanced := BFSLike(1<<28, levels, 2, 1, 0, sim.Microsecond, hw.PCIe3x16())
	if balanced >= skewed {
		t.Errorf("balanced (%v) not faster than skewed (%v)", balanced, skewed)
	}
	// Fully imbalanced 2 GPUs = 1 GPU.
	worst := BFSLike(1<<28, levels, 2, 0.5, 0, sim.Microsecond, hw.PCIe3x16())
	if worst != base {
		t.Errorf("d_skew=1/N should equal single GPU: %v vs %v", worst, base)
	}
}

func TestNaiveCacheHitRate(t *testing.T) {
	if got := NaiveCacheHitRate(50, 100); got != 0.5 {
		t.Errorf("hit rate = %v", got)
	}
	if got := NaiveCacheHitRate(200, 100); got != 1 {
		t.Errorf("clamped rate = %v", got)
	}
	if got := NaiveCacheHitRate(5, 0); got != 0 {
		t.Errorf("empty graph rate = %v", got)
	}
}

// TestModelTracksSimulationPageRank cross-checks Eq. 1 against the event
// simulation for an in-memory PageRank iteration: the model must land
// within a factor band of the measured time (the paper's own check shows
// ~20% gaps, §7.5).
func TestModelTracksSimulationPageRank(t *testing.T) {
	d, _ := graphgen.ByName("RMAT27")
	g := d.MustGenerate(27 - 11)
	sp, err := slottedpage.Build(g, slottedpage.ScaledConfig(2, 2, 4096))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(hw.Workstation(1, 0), sp, core.Options{CacheBytes: core.CacheDisabled})
	if err != nil {
		t.Fatal(err)
	}
	iters := 10
	rep, err := eng.RunJob(core.SharedJob{Kernel: kernels.NewPageRank(sp, 0.85, iters)})
	if err != nil {
		t.Fatal(err)
	}

	var spBytes, lpBytes int64
	pageSize := int64(sp.Config().PageSize)
	spBytes = int64(sp.NumSP()) * pageSize
	lpBytes = int64(sp.NumLP()) * pageSize
	in := Inputs{
		WABytes:        rep.WABytes,
		RABytes:        int64(g.NumVertices()) * 4,
		SPBytes:        spBytes,
		LPBytes:        lpBytes,
		NumSP:          int64(sp.NumSP()),
		NumLP:          int64(sp.NumLP()),
		GPUs:           1,
		CallOverhead:   8 * sim.Microsecond,
		KernelPageTime: 0,
	}
	predicted := sim.Time(int64(PageRankLike(in, hw.PCIe3x16())) * int64(iters))
	ratio := rep.Elapsed.Seconds() / predicted.Seconds()
	// The simulation adds kernel time the model hides and overlap the
	// model ignores; the paper's comparable check is within ~25%.
	if ratio < 0.5 || ratio > 3 {
		t.Errorf("simulated %v vs Eq.1 %v (ratio %.2f) — model diverged", rep.Elapsed, predicted, ratio)
	}
}

func TestSuggestStreams(t *testing.T) {
	// Paper Table 1 ratios: BFS on Twitter is 1:3 (kernel 3x transfer), so
	// ~4 streams keep the engine fed; PageRank's 1:20 wants the maximum.
	if got := SuggestStreams(sim.Millisecond, 3*sim.Millisecond); got != 4 {
		t.Errorf("1:3 ratio -> %d streams, want 4", got)
	}
	if got := SuggestStreams(sim.Millisecond, 20*sim.Millisecond); got != 21 {
		t.Errorf("1:20 ratio -> %d streams, want 21", got)
	}
	if got := SuggestStreams(sim.Millisecond, 100*sim.Millisecond); got != 32 {
		t.Errorf("huge ratio must clamp to 32, got %d", got)
	}
	if got := SuggestStreams(0, sim.Millisecond); got != 32 {
		t.Errorf("zero transfer -> %d, want 32", got)
	}
	if got := SuggestStreams(4*sim.Millisecond, sim.Millisecond); got != 2 {
		t.Errorf("transfer-bound -> %d streams, want 2", got)
	}
}
