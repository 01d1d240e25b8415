package bufpool

import (
	"strings"
	"testing"
)

func mustPool(t *testing.T, pages int) *Pool {
	t.Helper()
	p, err := New(Config{PageSize: modelPageSize, Bytes: int64(pages) * modelPageSize})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// pinReady pins pid and resolves a Load immediately, failing the test on
// Busy/NoFrame.
func pinReady(t *testing.T, p *Pool, pid uint64) {
	t.Helper()
	switch s := p.Pin(pid); s {
	case Hit:
	case Load:
		p.Ready(pid)
	default:
		t.Fatalf("Pin(%d) = %v, want Hit or Load", pid, s)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{PageSize: 0, Bytes: 1}); err == nil {
		t.Fatal("want error for zero page size")
	}
	p, err := New(Config{PageSize: 64, Bytes: 0}) // budget below one page: clamped
	if err != nil {
		t.Fatal(err)
	}
	if p.Capacity() != 1 {
		t.Fatalf("Capacity() = %d, want clamp to 1", p.Capacity())
	}
}

func TestPinStateString(t *testing.T) {
	for s, want := range map[PinState]string{Hit: "hit", Load: "load", Busy: "busy", NoFrame: "noframe", PinState(9): "pinstate(9)"} {
		if got := s.String(); got != want {
			t.Fatalf("PinState(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}

// TestVictimOrder pins the eviction order: the most recently unpinned page
// goes first, then the one unpinned before it, and a page pinned again
// re-enters at the recent end.
func TestVictimOrder(t *testing.T) {
	p := mustPool(t, 3)
	for pid := uint64(1); pid <= 3; pid++ {
		pinReady(t, p, pid)
	}
	p.Unpin(2)
	p.Unpin(1)
	p.Unpin(3) // unpin order, oldest first: 2, 1, 3
	pinReady(t, p, 4)
	if got, want := p.ResidentPIDs(), []uint64{1, 2, 4}; !equalPIDs(got, want) {
		t.Fatalf("resident after the first eviction = %v, want %v", got, want)
	}
	if s := p.Pin(2); s != Hit {
		t.Fatalf("Pin(2) = %v, want Hit", s)
	}
	p.Unpin(2) // oldest first: 1, 2 (4 is pinned)
	pinReady(t, p, 5)
	if got, want := p.ResidentPIDs(), []uint64{1, 4, 5}; !equalPIDs(got, want) {
		t.Fatalf("resident after the second eviction = %v, want %v", got, want)
	}
}

// TestPinnedNeverEvicted: with every frame pinned, new pins get NoFrame
// and the pinned set survives a shrink to one page.
func TestPinnedNeverEvicted(t *testing.T) {
	p := mustPool(t, 3)
	for pid := uint64(1); pid <= 3; pid++ {
		pinReady(t, p, pid)
	}
	if s := p.Pin(4); s != NoFrame {
		t.Fatalf("Pin over a fully pinned pool = %v, want NoFrame", s)
	}
	if n := p.Resize(modelPageSize); n != 0 {
		t.Fatalf("Resize evicted %d pinned pages", n)
	}
	if got := p.ResidentPIDs(); !equalPIDs(got, []uint64{1, 2, 3}) {
		t.Fatalf("pinned pages evicted: resident %v", got)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// As pins drop while over budget, pages are evicted immediately.
	p.Unpin(2)
	p.Unpin(3)
	if got := p.ResidentPIDs(); !equalPIDs(got, []uint64{1}) {
		t.Fatalf("over-budget unpin kept %v, want [1]", got)
	}
	st := p.Stats()
	if st.Evictions != 2 || st.PinWaits != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestBusyAndAbort: a loading frame answers Busy to other pinners; Abort
// releases it without residency.
func TestBusyAndAbort(t *testing.T) {
	p := mustPool(t, 2)
	if s := p.Pin(7); s != Load {
		t.Fatalf("first Pin = %v, want Load", s)
	}
	if s := p.Pin(7); s != Busy {
		t.Fatalf("Pin of loading page = %v, want Busy", s)
	}
	p.Abort(7)
	if got := p.ResidentPIDs(); len(got) != 0 {
		t.Fatalf("aborted page still resident: %v", got)
	}
	if s := p.Pin(7); s != Load {
		t.Fatalf("re-Pin after Abort = %v, want Load", s)
	}
	p.Ready(7)
	p.Unpin(7)
	if s := p.Pin(7); s != Hit {
		t.Fatalf("Pin after Ready+Unpin = %v, want Hit", s)
	}
	st := p.Stats()
	if st.Hits != 1 || st.Loads != 2 || st.PinWaits != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestResizeGrow: growing the budget stops evictions.
func TestResizeGrow(t *testing.T) {
	p := mustPool(t, 2)
	p.Resize(8 * modelPageSize)
	if p.Capacity() != 8 || p.Budget() != 8*modelPageSize {
		t.Fatalf("Capacity/Budget after grow: %d/%d", p.Capacity(), p.Budget())
	}
	for pid := uint64(1); pid <= 8; pid++ {
		pinReady(t, p, pid)
		p.Unpin(pid)
	}
	if st := p.Stats(); st.Evictions != 0 || st.Resident != 8 {
		t.Fatalf("stats after grow: %+v", st)
	}
	if n := p.Resize(2 * modelPageSize); n != 6 {
		t.Fatalf("shrink evicted %d, want 6", n)
	}
	if st := p.Stats(); st.Resident != 2 || st.ResidentBytes != 2*modelPageSize {
		t.Fatalf("stats after shrink: %+v", st)
	}
}

// TestDrop: Drop evicts a resident, unpinned, current-epoch frame and counts
// the eviction; it never evicts a pinned, loading or stale-epoch frame, and
// an absent page is a no-op.
func TestDrop(t *testing.T) {
	p := mustPool(t, 4)
	pinReady(t, p, 1) // stays pinned across the epoch change: stale
	pinReady(t, p, 2) // pinned at the current epoch
	p.AdvanceEpoch()
	p.Unpin(2)
	pinReady(t, p, 2) // pinned
	pinReady(t, p, 3)
	p.Unpin(3) // evictable
	if s := p.Pin(4); s != Load {
		t.Fatalf("Pin(4) = %v, want Load", s)
	} // 4 is loading
	before := p.Stats()
	for _, pid := range []uint64{1, 2, 4, 9} {
		if p.Drop(pid) {
			t.Fatalf("Drop(%d) evicted a stale, pinned, loading or absent frame", pid)
		}
	}
	if !p.Drop(3) {
		t.Fatal("Drop(3) kept a resident, unpinned, current-epoch frame")
	}
	if p.Drop(3) {
		t.Fatal("a second Drop(3) evicted again")
	}
	check(t, p)
	if got, want := p.ResidentPIDs(), []uint64{1, 2, 4}; !equalPIDs(got, want) {
		t.Fatalf("resident after Drop = %v, want %v", got, want)
	}
	if st := p.Stats(); st.Evictions != before.Evictions+1 || st.Invalidations != before.Invalidations {
		t.Fatalf("Drop counted %d evictions and %d invalidations, want 1 and 0",
			st.Evictions-before.Evictions, st.Invalidations-before.Invalidations)
	}
	// The frames Drop kept are released as usual.
	p.Unpin(1)
	p.Unpin(2)
	p.Ready(4)
	p.Unpin(4)
	check(t, p)
}

func TestUnpinPanics(t *testing.T) {
	for name, fn := range map[string]func(p *Pool){
		"unpin-unknown":  func(p *Pool) { p.Unpin(9) },
		"ready-unknown":  func(p *Pool) { p.Ready(9) },
		"abort-unknown":  func(p *Pool) { p.Abort(9) },
		"double-unpin":   func(p *Pool) { pinReady(t, p, 1); p.Unpin(1); p.Unpin(1) },
		"unpin-loading":  func(p *Pool) { p.Pin(2); p.Unpin(2) },
		"ready-resident": func(p *Pool) { pinReady(t, p, 3); p.Ready(3) },
	} {
		p := mustPool(t, 2)
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Fatalf("%s: want panic", name)
				} else if !strings.Contains(r.(string), "bufpool") {
					t.Fatalf("%s: unexpected panic %v", name, r)
				}
			}()
			fn(p)
		}()
	}
}
