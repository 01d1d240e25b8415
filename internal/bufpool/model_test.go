package bufpool

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The model test drives the real pool and a naive reference oracle
// through the same randomized op scripts and asserts identical observable
// state after every op: the PinState returned, the resident page set, and
// the counter snapshot. The oracle reimplements the pool spec with plain
// slices and linear searches — no index maps, no linked list — so a
// bookkeeping bug in either implementation shows up as a divergence.
// Failing scripts are shrunk to a minimal reproducer before reporting.

const modelPageSize = 64

// ---------------------------------------------------------------------------
// Reference oracle

type modelFrame struct {
	refs    int
	loading bool
}

type model struct {
	capacity int
	frames   map[uint64]*modelFrame
	pol      modelEvictable

	hits, loads, evictions, pinWaits int64
}

func newModel(capPages int) *model {
	return &model{capacity: capPages, frames: map[uint64]*modelFrame{}}
}

func (m *model) pin(pid uint64) PinState {
	if f, ok := m.frames[pid]; ok {
		if f.loading {
			m.pinWaits++
			return Busy
		}
		if f.refs == 0 {
			m.pol.remove(pid)
		}
		f.refs++
		m.hits++
		return Hit
	}
	for len(m.frames) >= m.capacity {
		v, ok := m.pol.victim()
		if !ok {
			m.pinWaits++
			return NoFrame
		}
		delete(m.frames, v)
		m.evictions++
	}
	m.frames[pid] = &modelFrame{refs: 1, loading: true}
	m.loads++
	return Load
}

func (m *model) ready(pid uint64) { m.frames[pid].loading = false }

func (m *model) abort(pid uint64) { delete(m.frames, pid) }

func (m *model) unpin(pid uint64) {
	f := m.frames[pid]
	f.refs--
	if f.refs > 0 {
		return
	}
	if len(m.frames) > m.capacity {
		delete(m.frames, pid)
		m.evictions++
		return
	}
	m.pol.insert(pid)
}

func (m *model) drop(pid uint64) bool {
	f, ok := m.frames[pid]
	if !ok || f.refs > 0 || f.loading {
		return false
	}
	m.pol.remove(pid)
	delete(m.frames, pid)
	m.evictions++
	return true
}

func (m *model) resize(capPages int) {
	if capPages < 1 {
		capPages = 1
	}
	m.capacity = capPages
	for len(m.frames) > m.capacity {
		v, ok := m.pol.victim()
		if !ok {
			break
		}
		delete(m.frames, v)
		m.evictions++
	}
}

func (m *model) resident() []uint64 {
	out := make([]uint64, 0, len(m.frames))
	for pid := range m.frames {
		out = append(out, pid)
	}
	slices.Sort(out)
	return out
}

// modelEvictable lists the unpinned pages by when each was last unpinned,
// oldest first; the victim is the newest.
type modelEvictable struct{ order []uint64 }

func (l *modelEvictable) insert(pid uint64) {
	l.remove(pid)
	l.order = append(l.order, pid)
}

func (l *modelEvictable) remove(pid uint64) {
	for i, p := range l.order {
		if p == pid {
			l.order = append(l.order[:i], l.order[i+1:]...)
			return
		}
	}
}

func (l *modelEvictable) victim() (uint64, bool) {
	if len(l.order) == 0 {
		return 0, false
	}
	pid := l.order[len(l.order)-1]
	l.order = l.order[:len(l.order)-1]
	return pid, true
}

// ---------------------------------------------------------------------------
// Script harness

// scriptOp kinds. Pin ops resolve a granted Load immediately (Ready or
// Abort) except opPinHold, which leaves the frame loading so later pins
// observe Busy until an opResolve readies or aborts it.
const (
	opPinReady = iota // pin pid; on Load: read + Ready (pin kept, tracked)
	opPinAbort        // pin pid; on Load: Abort (load failure path)
	opUnpin           // unpin one tracked pin, chosen by arg
	opResize          // resize to (arg%8+1) pages
	opPinHold         // pin pid; on Load: leave loading (tracked separately)
	opResolve         // resolve one held loading frame: even arg Ready, odd Abort
	opDrop            // drop pid (evicted only if resident and unpinned)
	numOpKinds
)

type scriptOp struct {
	kind int
	arg  uint64
}

func (o scriptOp) String() string {
	names := []string{"pin", "pin-abort", "unpin", "resize", "pin-hold", "resolve", "drop"}
	return fmt.Sprintf("%s(%d)", names[o.kind], o.arg)
}

// runScript replays ops against a real pool and the oracle, returning a
// description of the first divergence or invariant violation.
func runScript(capPages int, ops []scriptOp) error {
	pool, err := New(Config{PageSize: modelPageSize, Bytes: int64(capPages) * modelPageSize})
	if err != nil {
		return err
	}
	oracle := newModel(capPages)

	var outstanding []uint64 // pids with a tracked pin (ready frames)
	var held []uint64        // pids held in loading state

	for i, op := range ops {
		switch op.kind {
		case opPinReady, opPinAbort, opPinHold:
			pid := op.arg
			got, want := pool.Pin(pid), oracle.pin(pid)
			if got != want {
				return fmt.Errorf("op %d %v: pool returned %v, oracle %v", i, op, got, want)
			}
			switch got {
			case Hit:
				outstanding = append(outstanding, pid)
			case Load:
				switch op.kind {
				case opPinReady:
					pool.Ready(pid)
					oracle.ready(pid)
					outstanding = append(outstanding, pid)
				case opPinAbort:
					pool.Abort(pid)
					oracle.abort(pid)
				case opPinHold:
					held = append(held, pid)
				}
			}
		case opUnpin:
			if len(outstanding) == 0 {
				continue
			}
			idx := int(op.arg) % len(outstanding)
			pid := outstanding[idx]
			outstanding = append(outstanding[:idx], outstanding[idx+1:]...)
			pool.Unpin(pid)
			oracle.unpin(pid)
		case opResize:
			capPages := int(op.arg%8) + 1
			pool.Resize(int64(capPages) * modelPageSize)
			oracle.resize(capPages)
		case opDrop:
			if got, want := pool.Drop(op.arg), oracle.drop(op.arg); got != want {
				return fmt.Errorf("op %d %v: pool returned %v, oracle %v", i, op, got, want)
			}
		case opResolve:
			if len(held) == 0 {
				continue
			}
			idx := int(op.arg/2) % len(held)
			pid := held[idx]
			held = append(held[:idx], held[idx+1:]...)
			if op.arg%2 == 0 {
				pool.Ready(pid)
				oracle.ready(pid)
				outstanding = append(outstanding, pid)
			} else {
				pool.Abort(pid)
				oracle.abort(pid)
			}
		}

		if err := pool.CheckInvariants(); err != nil {
			return fmt.Errorf("op %d %v: invariant violated: %w", i, op, err)
		}
		gotRes, wantRes := pool.ResidentPIDs(), oracle.resident()
		if !equalPIDs(gotRes, wantRes) {
			return fmt.Errorf("op %d %v: resident set %v, oracle %v", i, op, gotRes, wantRes)
		}
		st := pool.Stats()
		if st.Hits != oracle.hits || st.Loads != oracle.loads ||
			st.Evictions != oracle.evictions || st.PinWaits != oracle.pinWaits {
			return fmt.Errorf("op %d %v: stats {hits %d loads %d evict %d waits %d}, oracle {%d %d %d %d}",
				i, op, st.Hits, st.Loads, st.Evictions, st.PinWaits,
				oracle.hits, oracle.loads, oracle.evictions, oracle.pinWaits)
		}
	}
	return nil
}

func equalPIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// minimizeScript delta-debugs a failing script down to a locally minimal
// reproducer: remove chunks (halving sizes), keep any removal that still
// fails, repeat to fixpoint.
func minimizeScript(ops []scriptOp, fails func([]scriptOp) bool) []scriptOp {
	for changed := true; changed; {
		changed = false
		for sz := len(ops) / 2; sz >= 1; sz /= 2 {
			for i := 0; i+sz <= len(ops); {
				cand := make([]scriptOp, 0, len(ops)-sz)
				cand = append(cand, ops[:i]...)
				cand = append(cand, ops[i+sz:]...)
				if fails(cand) {
					ops = cand
					changed = true
				} else {
					i += sz
				}
			}
		}
	}
	return ops
}

func genScript(r *rand.Rand, n, pidSpace int) []scriptOp {
	ops := make([]scriptOp, n)
	for i := range ops {
		var op scriptOp
		switch p := r.Intn(100); {
		case p < 45:
			op = scriptOp{opPinReady, uint64(r.Intn(pidSpace))}
		case p < 52:
			op = scriptOp{opPinAbort, uint64(r.Intn(pidSpace))}
		case p < 62:
			op = scriptOp{opPinHold, uint64(r.Intn(pidSpace))}
		case p < 72:
			op = scriptOp{opResolve, uint64(r.Intn(64))}
		case p < 89:
			op = scriptOp{opUnpin, uint64(r.Intn(64))}
		case p < 94:
			op = scriptOp{opDrop, uint64(r.Intn(pidSpace))}
		default:
			op = scriptOp{opResize, uint64(r.Intn(8))}
		}
		ops[i] = op
	}
	return ops
}

// TestPoolModel is the main property test: seeded random scripts replayed
// against the oracle, with shrink-on-failure.
func TestPoolModel(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		capPages := 1 + r.Intn(6)
		pidSpace := 4 + r.Intn(28)
		ops := genScript(r, 500, pidSpace)
		if err := runScript(capPages, ops); err != nil {
			min := minimizeScript(ops, func(cand []scriptOp) bool {
				return runScript(capPages, cand) != nil
			})
			t.Fatalf("seed %d cap %d: %v\nminimized to %d ops: %v\nminimized failure: %v",
				seed, capPages, err, len(min), min, runScript(capPages, min))
		}
	}
}

// TestPoolModelDeterminism pins that identical scripts produce identical
// eviction decisions: two independent pools end with identical resident sets
// and counters.
func TestPoolModelDeterminism(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	ops := genScript(r, 300, 24)
	run := func() (res []uint64, st Stats) {
		pool, err := New(Config{PageSize: modelPageSize, Bytes: 4 * modelPageSize})
		if err != nil {
			t.Fatal(err)
		}
		var outstanding []uint64
		for _, op := range ops {
			switch op.kind {
			case opPinReady, opPinHold, opPinAbort:
				switch pool.Pin(op.arg) {
				case Load:
					pool.Ready(op.arg)
					outstanding = append(outstanding, op.arg)
				case Hit:
					outstanding = append(outstanding, op.arg)
				}
			case opUnpin:
				if len(outstanding) > 0 {
					idx := int(op.arg) % len(outstanding)
					pool.Unpin(outstanding[idx])
					outstanding = append(outstanding[:idx], outstanding[idx+1:]...)
				}
			}
		}
		return pool.ResidentPIDs(), pool.Stats()
	}
	resA, stA := run()
	resB, stB := run()
	if !equalPIDs(resA, resB) {
		t.Fatalf("nondeterministic resident set: %v vs %v", resA, resB)
	}
	if stA != stB {
		t.Fatalf("nondeterministic stats: %+v vs %+v", stA, stB)
	}
}
