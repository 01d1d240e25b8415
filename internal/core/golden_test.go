package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite internal/core/testdata/golden.json")

// goldenEntry pins one kernel's expected result digests: SHA-256 over the
// kernel's encoded final state for a fault-free run and for a run under the
// chaos fault plan (which must recover to the same bytes).
type goldenEntry struct {
	Clean   string `json:"clean"`
	Faulted string `json:"faulted"`
}

const goldenPath = "testdata/golden.json"

// goldenDigest runs one kernel and hashes its encoded final state. The
// fixture is fixed: the seeded RMAT27 proxy graph (2048 vertices), source
// 0, one in-memory GPU — every quantity on that path is deterministic, so
// the digests are stable across machines and Go versions.
func goldenDigest(t *testing.T, kc kernelCase, faulted bool) string {
	t.Helper()
	g := rmatGraph(t)
	sp := buildPages(t, g)
	opts := Options{}
	if faulted {
		opts.Faults = chaosPlan()
	}
	raw, _ := runDigest(t, sp, kc, opts, 1, 0)
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

func readGolden(t *testing.T) map[string]goldenEntry {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading %s (run `go test ./internal/core/ -run Golden -update-golden` to create it): %v", goldenPath, err)
	}
	var m map[string]goldenEntry
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("parsing %s: %v", goldenPath, err)
	}
	return m
}

// TestGoldenResults asserts every kernel (the direction-optimizing
// variants included) reproduces its checked-in result digest, fault-free
// and under the chaos plan. A digest change means the functional results
// drifted — either a kernel bug or an intentional change that must be
// re-pinned with -update-golden.
func TestGoldenResults(t *testing.T) {
	if *updateGolden {
		// Keep the incremental-path entries (TestGoldenIncremental re-pins
		// those); rewrite only the kernel digests here.
		m := map[string]goldenEntry{}
		if raw, err := os.ReadFile(goldenPath); err == nil {
			var old map[string]goldenEntry
			if json.Unmarshal(raw, &old) == nil {
				for name, e := range old {
					if strings.HasPrefix(name, "inc-") {
						m[name] = e
					}
				}
			}
		}
		for _, kc := range kernelCases() {
			m[kc.name] = goldenEntry{
				Clean:   goldenDigest(t, kc, false),
				Faulted: goldenDigest(t, kc, true),
			}
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		raw, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d entries", goldenPath, len(m))
		return
	}

	golden := readGolden(t)
	var names []string
	for name := range golden {
		// "inc-" entries pin the incremental path; TestGoldenIncremental
		// owns them.
		if !strings.HasPrefix(name, "inc-") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	cases := map[string]kernelCase{}
	for _, kc := range kernelCases() {
		cases[kc.name] = kc
	}
	if len(names) != len(cases) {
		t.Errorf("golden file has %d kernel entries, kernelCases has %d — re-pin with -update-golden", len(names), len(cases))
	}
	for _, name := range names {
		kc, ok := cases[name]
		if !ok {
			t.Errorf("golden entry %q has no kernel case", name)
			continue
		}
		want := golden[name]
		t.Run(name, func(t *testing.T) {
			if got := goldenDigest(t, kc, false); got != want.Clean {
				t.Errorf("clean digest = %s, want %s", got, want.Clean)
			}
			if got := goldenDigest(t, kc, true); got != want.Faulted {
				t.Errorf("faulted digest = %s, want %s", got, want.Faulted)
			}
		})
	}
}
