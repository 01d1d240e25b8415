package bufpool

import "testing"

// decodeScript turns fuzz bytes into a (capacity, ops) pair: byte 2 is the
// capacity in pages and the rest decode pairwise into ops, the kind modulo
// numOpKinds. Bytes 0 and 1 once selected a policy and a tiebreak seed; they
// stay skipped. Every byte string is a valid
// script — the harness interprets args modulo current state — so the fuzzer
// can mutate freely.
func decodeScript(data []byte) (capPages int, ops []scriptOp) {
	capPages = int(data[2]%7) + 1
	body := data[3:]
	for i := 0; i+1 < len(body); i += 2 {
		ops = append(ops, scriptOp{kind: int(body[i]) % numOpKinds, arg: uint64(body[i+1])})
	}
	return capPages, ops
}

// FuzzPoolOps cross-checks the pool against the reference oracle on
// fuzzer-generated op scripts. Wired into `make fuzz`.
func FuzzPoolOps(f *testing.F) {
	// Seed corpus: scripts exercising pin/unpin/evict, loading holds,
	// aborts, resizes, and drops of an unpinned and a pinned page.
	f.Add([]byte{0, 1, 2, 0, 1, 0, 2, 0, 3, 2, 0, 0, 4, 3, 1, 5, 2, 2, 0})
	f.Add([]byte{1, 42, 1, 0, 7, 0, 8, 2, 0, 0, 9, 3, 0, 0, 7, 2, 1})
	f.Add([]byte{2, 9, 3, 0, 1, 0, 2, 0, 3, 0, 4, 2, 0, 2, 0, 0, 1, 0, 2, 4, 5, 5, 1})
	f.Add([]byte{0, 0, 3, 0, 1, 2, 0, 6, 1, 0, 1, 6, 1, 4, 2, 6, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		capPages, ops := decodeScript(data)
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		if err := runScript(capPages, ops); err != nil {
			t.Fatalf("cap %d: %v", capPages, err)
		}
	})
}
