package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/trace"
)

func tmpWAL(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "test.wal")
}

func mustOpen(t *testing.T, path string, opts Options) (*Log, []Batch) {
	t.Helper()
	l, batches, err := Open(path, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	return l, batches
}

func TestAppendReplayRoundtrip(t *testing.T) {
	path := tmpWAL(t)
	l, batches := mustOpen(t, path, Options{})
	if len(batches) != 0 {
		t.Fatalf("fresh log replayed %d batches", len(batches))
	}
	want := [][]Op{
		{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}},
		{{Del: true, Src: 0, Dst: 1}},
		{{Src: 7, Dst: 7}, {Src: 2, Dst: 0}, {Del: true, Src: 9, Dst: 9}},
	}
	for i, ops := range want {
		lsn, err := l.Append(ops)
		if err != nil {
			t.Fatalf("Append #%d: %v", i, err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("Append #%d: lsn = %d, want %d", i, lsn, i+1)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, got := mustOpen(t, path, Options{})
	defer l2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d batches, want %d", len(got), len(want))
	}
	for i, b := range got {
		if b.LSN != uint64(i+1) {
			t.Errorf("batch %d: LSN = %d, want %d", i, b.LSN, i+1)
		}
		if len(b.Ops) != len(want[i]) {
			t.Fatalf("batch %d: %d ops, want %d", i, len(b.Ops), len(want[i]))
		}
		for j, op := range b.Ops {
			if op != (Op{Del: want[i][j].Del, Src: want[i][j].Src, Dst: want[i][j].Dst}) {
				t.Errorf("batch %d op %d: %+v, want %+v", i, j, op, want[i][j])
			}
		}
	}
	if l2.LSN() != 3 {
		t.Errorf("reopened LSN = %d, want 3", l2.LSN())
	}
	st := l2.Stats()
	if st.ReplayedBatches != 3 || st.TruncatedBytes != 0 {
		t.Errorf("reopen stats = %+v, want 3 replayed / 0 truncated", st)
	}
}

func TestEmptyBatchCommits(t *testing.T) {
	path := tmpWAL(t)
	l, _ := mustOpen(t, path, Options{})
	if _, err := l.Append(nil); err != nil {
		t.Fatalf("Append(nil): %v", err)
	}
	l.Close()
	l2, batches := mustOpen(t, path, Options{})
	defer l2.Close()
	if len(batches) != 1 || batches[0].LSN != 1 || len(batches[0].Ops) != 0 {
		t.Fatalf("replayed %+v, want one empty batch at LSN 1", batches)
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	path := tmpWAL(t)
	l, _ := mustOpen(t, path, Options{})
	l.Append([]Op{{Src: 1, Dst: 2}})
	l.Append([]Op{{Src: 3, Dst: 4}})
	l.Close()

	// Simulate a torn third record: append a strict prefix of a valid frame.
	frame := AppendFrame(nil, 3, []Op{{Src: 5, Dst: 6}})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	goodLen := len(data)
	data = append(data, frame[:len(frame)-3]...)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, batches := mustOpen(t, path, Options{})
	if len(batches) != 2 {
		t.Fatalf("replayed %d batches, want 2", len(batches))
	}
	st := l2.Stats()
	if st.TruncatedBytes != int64(len(frame)-3) {
		t.Errorf("TruncatedBytes = %d, want %d", st.TruncatedBytes, len(frame)-3)
	}
	// The torn tail is physically gone: appending LSN 3 lands where the torn
	// record started, and a reopen sees 3 clean batches.
	if _, err := l2.Append([]Op{{Src: 5, Dst: 6}}); err != nil {
		t.Fatalf("Append after truncation: %v", err)
	}
	l2.Close()
	onDisk, _ := os.ReadFile(path)
	if len(onDisk) != goodLen+len(frame) {
		t.Errorf("file length = %d, want %d", len(onDisk), goodLen+len(frame))
	}
	l3, batches3 := mustOpen(t, path, Options{})
	defer l3.Close()
	if len(batches3) != 3 {
		t.Errorf("final replay got %d batches, want 3", len(batches3))
	}
}

func TestReplayRejectsCorruption(t *testing.T) {
	var img []byte
	img = AppendFrame(img, 1, []Op{{Src: 1, Dst: 2}})
	img = AppendFrame(img, 2, []Op{{Del: true, Src: 1, Dst: 2}})
	good := len(img)
	img = AppendFrame(img, 3, []Op{{Src: 9, Dst: 9}})

	cases := map[string]func([]byte) []byte{
		"bit flip in third frame body": func(b []byte) []byte {
			b[good+headerLen] ^= 0xff
			return b
		},
		"bad magic": func(b []byte) []byte {
			b[good] ^= 0x01
			return b
		},
		"lsn gap": func(b []byte) []byte {
			b[good+4] = 9 // lsn 3 -> garbage
			return b
		},
		"truncated mid-header": func(b []byte) []byte { return b[:good+5] },
		"truncated mid-crc":    func(b []byte) []byte { return b[:len(b)-2] },
		"giant count": func(b []byte) []byte {
			// count field implies more ops than bytes present.
			b[good+12] = 0xff
			b[good+13] = 0xff
			b[good+14] = 0xff
			b[good+15] = 0xff
			return b
		},
	}
	for name, mutate := range cases {
		data := mutate(append([]byte(nil), img...))
		batches, validLen := Replay(data)
		if len(batches) != 2 || validLen != good {
			t.Errorf("%s: recovered %d batches / %d bytes, want 2 / %d", name, len(batches), validLen, good)
		}
	}
}

// TestConcurrentAppendsAllDurable: appends from many goroutines take turns
// through the log, each with its own fsync, and every one replays.
func TestConcurrentAppendsAllDurable(t *testing.T) {
	path := tmpWAL(t)
	l, _ := mustOpen(t, path, Options{})
	defer l.Close()

	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := l.Append([]Op{{Src: uint64(i), Dst: uint64(i + 1)}}); err != nil {
				t.Errorf("Append: %v", err)
			}
		}(i)
	}
	wg.Wait()
	st := l.Stats()
	if st.Appends != n {
		t.Fatalf("Appends = %d, want %d", st.Appends, n)
	}
	if st.Fsyncs != st.Appends {
		t.Errorf("Fsyncs = %d, want one per append (%d)", st.Fsyncs, st.Appends)
	}
	l.Close()
	l2, batches := mustOpen(t, path, Options{})
	defer l2.Close()
	if len(batches) != n {
		t.Fatalf("replayed %d batches, want %d", len(batches), n)
	}
	seen := map[uint64]bool{}
	for _, b := range batches {
		seen[b.Ops[0].Src] = true
	}
	if len(seen) != n {
		t.Errorf("recovered %d distinct batches, want %d", len(seen), n)
	}
}

func TestCrashBeforeAppendLeavesNoTrace(t *testing.T) {
	path := tmpWAL(t)
	inj := fault.NewInjector(&fault.Plan{Seed: 1, WALCrashAppends: []int64{2}})
	l, _ := mustOpen(t, path, Options{Faults: inj})
	if _, err := l.Append([]Op{{Src: 1, Dst: 2}}); err != nil {
		t.Fatalf("Append #1: %v", err)
	}
	if _, err := l.Append([]Op{{Src: 3, Dst: 4}}); !errors.Is(err, fault.ErrCrash) {
		t.Fatalf("Append #2 = %v, want ErrCrash", err)
	}
	if !l.Dead() {
		t.Fatal("log not dead after crash")
	}
	// Dead log rejects everything.
	if _, err := l.Append([]Op{{Src: 5, Dst: 6}}); !errors.Is(err, fault.ErrCrash) {
		t.Fatalf("Append on dead log = %v, want ErrCrash", err)
	}
	l.Close()
	l2, batches := mustOpen(t, path, Options{})
	defer l2.Close()
	if len(batches) != 1 || batches[0].Ops[0].Src != 1 {
		t.Fatalf("recovered %+v, want only batch 1", batches)
	}
	if l2.Stats().TruncatedBytes != 0 {
		t.Errorf("clean crash should tear nothing; truncated %d bytes", l2.Stats().TruncatedBytes)
	}
}

func TestCrashTornAppendRecoversPrefix(t *testing.T) {
	path := tmpWAL(t)
	inj := fault.NewInjector(&fault.Plan{Seed: 42, WALTornAppends: []int64{2}})
	l, _ := mustOpen(t, path, Options{Faults: inj})
	l.Append([]Op{{Src: 1, Dst: 2}})
	if _, err := l.Append([]Op{{Src: 3, Dst: 4}}); !errors.Is(err, fault.ErrCrash) {
		t.Fatalf("torn append = %v, want ErrCrash", err)
	}
	l.Close()

	l2, batches := mustOpen(t, path, Options{})
	defer l2.Close()
	if len(batches) != 1 {
		t.Fatalf("recovered %d batches, want 1", len(batches))
	}
	if l2.Stats().TruncatedBytes == 0 {
		t.Error("torn append left no tail to truncate — tear did not reach the file")
	}
	if inj.Stats().TornWrites != 1 {
		t.Errorf("TornWrites = %d, want 1", inj.Stats().TornWrites)
	}
}

func TestCrashDuringFsyncIsDurable(t *testing.T) {
	// A crash during fsync loses the ack but not the bytes: recovery MUST
	// replay the batch (the ambiguity a WAL resolves toward durability).
	path := tmpWAL(t)
	inj := fault.NewInjector(&fault.Plan{Seed: 7, WALCrashSyncs: []int64{1}})
	l, _ := mustOpen(t, path, Options{Faults: inj})
	if _, err := l.Append([]Op{{Src: 1, Dst: 2}}); !errors.Is(err, fault.ErrCrash) {
		t.Fatalf("Append = %v, want ErrCrash", err)
	}
	l.Close()
	l2, batches := mustOpen(t, path, Options{})
	defer l2.Close()
	if len(batches) != 1 {
		t.Fatalf("recovered %d batches, want 1 (fsync crash loses the ack, not the record)", len(batches))
	}
}

func TestReopenIdempotent(t *testing.T) {
	path := tmpWAL(t)
	l, _ := mustOpen(t, path, Options{})
	l.Append([]Op{{Src: 1, Dst: 2}})
	l.Append([]Op{{Src: 3, Dst: 4}})
	l.Close()
	first, _ := os.ReadFile(path)
	for i := 0; i < 3; i++ {
		l2, batches := mustOpen(t, path, Options{})
		if len(batches) != 2 {
			t.Fatalf("reopen #%d: %d batches", i, len(batches))
		}
		l2.Close()
	}
	after, _ := os.ReadFile(path)
	if !bytes.Equal(first, after) {
		t.Error("reopening without appends changed the file")
	}
}

func TestTraceSpans(t *testing.T) {
	path := tmpWAL(t)
	rec := trace.New()
	l, _ := mustOpen(t, path, Options{Trace: rec})
	l.Append([]Op{{Src: 1, Dst: 2}})
	l.Close()
	var appends, syncs, replays int
	for _, s := range rec.Spans() {
		switch s.Kind {
		case trace.WALAppend:
			appends++
		case trace.WALFsync:
			syncs++
		case trace.WALReplay:
			replays++
		}
	}
	if replays != 1 || appends != 1 || syncs < 1 {
		t.Errorf("spans: %d replay / %d append / %d fsync, want 1/1/>=1", replays, appends, syncs)
	}
}

func TestAccessorsAndClose(t *testing.T) {
	path := tmpWAL(t)
	l, _ := mustOpen(t, path, Options{})
	if l.Size() != 0 || l.LSN() != 0 {
		t.Errorf("fresh log: size %d lsn %d, want 0/0", l.Size(), l.LSN())
	}
	if _, err := l.Append([]Op{{Src: 1, Dst: 2}, {Del: true, Src: 3, Dst: 4}}); err != nil {
		t.Fatal(err)
	}
	wantSize := int64(headerLen + 2*opLen + crcLen)
	if l.Size() != wantSize {
		t.Errorf("Size() = %d, want %d", l.Size(), wantSize)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Close is idempotent; a closed log refuses writes.
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := l.Append([]Op{{Src: 5, Dst: 6}}); !errors.Is(err, ErrClosed) {
		t.Errorf("Append after Close = %v, want ErrClosed", err)
	}
}
