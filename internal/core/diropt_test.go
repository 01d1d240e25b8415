package core

import (
	"bytes"
	"fmt"
	"testing"
)

// TestDirOptMatchesPlainKernels pins the direction-optimizing BFS to the
// plain kernel: DirBFS in every mode must reproduce BFS's levels
// byte-for-byte.
func TestDirOptMatchesPlainKernels(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	cases := kernelCases()
	want, _ := runDigest(t, sp, cases[0], Options{}, 1, 0)
	for _, kc := range cases[11:14] { // BFS-diropt, forced push, forced pull
		t.Run(kc.name, func(t *testing.T) {
			got, _ := runDigest(t, sp, kc, Options{}, 1, 0)
			if !bytes.Equal(got, want) {
				t.Errorf("%s state differs from BFS", kc.name)
			}
		})
	}
}

// TestDirOptUnderChaos runs the adaptive kernel through the chaos fault
// plan: recovery replays must preserve both the values and the planned
// direction schedule of a fault-free run, and replaying the plan must
// reproduce the faulted run's report.
func TestDirOptUnderChaos(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	kc := kernelCases()[11] // BFS-diropt
	t.Run(kc.name, func(t *testing.T) {
		cleanBytes, cleanRep := runDigest(t, sp, kc, Options{}, 2, 2)
		opts := Options{Faults: chaosPlan()}
		wantBytes, wantRep := runDigest(t, sp, kc, opts, 2, 2)
		gotBytes, gotRep := runDigest(t, sp, kc, opts, 2, 2)
		if !bytes.Equal(wantBytes, cleanBytes) || !bytes.Equal(gotBytes, wantBytes) {
			t.Error("state not byte-identical to the fault-free run under faults")
		}
		if fmt.Sprint(wantRep.LevelDirs) != fmt.Sprint(cleanRep.LevelDirs) {
			t.Errorf("direction schedule differs from the fault-free run: %v vs %v", wantRep.LevelDirs, cleanRep.LevelDirs)
		}
		sameRun(t, kc.name+" replay", wantRep, gotRep)
		if len(wantRep.LevelDirs) == 0 {
			t.Error("LevelDirs empty for a direction-planning kernel")
		}
		if fmt.Sprint(wantRep.LevelDirs) != fmt.Sprint(gotRep.LevelDirs) {
			t.Errorf("direction schedule differs: %v vs %v", wantRep.LevelDirs, gotRep.LevelDirs)
		}
	})
}

// sameRun asserts the deterministic Report fields match between two
// executions of the same configuration: virtual time, traversal shape, data
// movement, update counts, and the fault/recovery tally.
func sameRun(t *testing.T, label string, a, b *Report) {
	t.Helper()
	if a.Elapsed != b.Elapsed {
		t.Errorf("%s: Elapsed %v vs %v", label, a.Elapsed, b.Elapsed)
	}
	if a.Levels != b.Levels {
		t.Errorf("%s: Levels %d vs %d", label, a.Levels, b.Levels)
	}
	if a.PagesStreamed != b.PagesStreamed {
		t.Errorf("%s: PagesStreamed %d vs %d", label, a.PagesStreamed, b.PagesStreamed)
	}
	if a.BytesToGPU != b.BytesToGPU {
		t.Errorf("%s: BytesToGPU %d vs %d", label, a.BytesToGPU, b.BytesToGPU)
	}
	if a.EdgesTraversed != b.EdgesTraversed {
		t.Errorf("%s: EdgesTraversed %d vs %d", label, a.EdgesTraversed, b.EdgesTraversed)
	}
	if a.Updates != b.Updates {
		t.Errorf("%s: Updates %d vs %d", label, a.Updates, b.Updates)
	}
	if a.Faults != b.Faults {
		t.Errorf("%s: Faults %+v vs %+v", label, a.Faults, b.Faults)
	}
}
