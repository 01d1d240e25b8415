// Package wal is the write-ahead log behind mutable slotted-page graphs:
// every edge-ingest batch is framed, CRC-32 protected, appended and
// fsynced to a log file BEFORE it is applied to the in-memory page store,
// one batch at a time, so a crash at any point during ingest — between two
// appends, mid-record, during an fsync, or during the page swap — recovers
// to the exact prefix of batches that reached the disk intact.
//
// Frame layout (little-endian):
//
//	magic  uint32   0x4754_4C57 ("WLTG" on disk)
//	lsn    uint64   1-based, strictly sequential
//	count  uint32   ops in the batch
//	ops    count ×  (op uint8 | src uint64 | dst uint64)
//	crc    uint32   CRC-32 (IEEE) over lsn..ops
//
// A batch is committed iff its whole frame is on disk with a valid magic,
// a sequential LSN, and a matching CRC. Replay scans frames in order and
// stops at the first violation: whatever follows — a torn record, random
// corruption, a stale tail from a recycled file — is discarded, which
// makes the committed history exactly the longest valid frame prefix.
// Open truncates the file to that prefix, so a recovered log is
// byte-identical to one that never crashed.
//
// Crash injection (internal/fault CrashPoint / TornWrite kinds) is
// consulted at every append and fsync; an injected crash marks the log
// dead — the process is "killed", and recovery happens by reopening the
// file, exactly as it would after a real crash.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/slottedpage"
	"repro/internal/trace"
)

// frameMagic marks the start of every record frame.
const frameMagic uint32 = 0x47544C57

// Frame layout constants.
const (
	headerLen = 4 + 8 + 4 // magic + lsn + count
	opLen     = 1 + 8 + 8 // op + src + dst
	crcLen    = 4
)

// ErrClosed reports an operation on a closed log.
var ErrClosed = errors.New("wal: log closed")

// Op is one edge mutation, the one the graph applies: an insert (Del false)
// or a delete (Del true) of the directed edge Src -> Dst.
type Op = slottedpage.EdgeOp

// Batch is one committed record: a batch of ops with its log sequence
// number. LSNs are 1-based and dense; the LSN doubles as the graph's
// version/epoch after the batch is applied.
type Batch struct {
	LSN uint64
	Ops []Op
}

// frameSize is the on-disk size of a batch with n ops.
func frameSize(n int) int { return headerLen + n*opLen + crcLen }

// AppendFrame encodes one record frame onto dst and returns the extended
// slice. It is exported for tests and fuzz-corpus construction; Append is
// the durable path.
func AppendFrame(dst []byte, lsn uint64, ops []Op) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, frameSize(len(ops)))...)
	b := dst[start:]
	binary.LittleEndian.PutUint32(b[0:], frameMagic)
	binary.LittleEndian.PutUint64(b[4:], lsn)
	binary.LittleEndian.PutUint32(b[12:], uint32(len(ops)))
	p := headerLen
	for _, op := range ops {
		if op.Del {
			b[p] = 1
		}
		binary.LittleEndian.PutUint64(b[p+1:], op.Src)
		binary.LittleEndian.PutUint64(b[p+9:], op.Dst)
		p += opLen
	}
	crc := crc32.ChecksumIEEE(b[4:p])
	binary.LittleEndian.PutUint32(b[p:], crc)
	return dst
}

// Replay decodes the longest valid committed prefix of a log image. It
// never panics and never over-allocates on hostile input: frames are
// validated (magic, sequential LSN, bounded count, CRC) before their ops
// are materialized. It returns the committed batches and the byte length
// of the valid prefix; data[validLen:] is the torn/corrupt tail a recovery
// discards.
func Replay(data []byte) (batches []Batch, validLen int) {
	off := 0
	lsn := uint64(0)
	for {
		rest := data[off:]
		if len(rest) < headerLen+crcLen {
			return batches, off
		}
		if binary.LittleEndian.Uint32(rest[0:]) != frameMagic {
			return batches, off
		}
		gotLSN := binary.LittleEndian.Uint64(rest[4:])
		if gotLSN != lsn+1 {
			return batches, off
		}
		count := int64(binary.LittleEndian.Uint32(rest[12:]))
		need := int64(headerLen) + count*opLen + crcLen
		if need > int64(len(rest)) {
			return batches, off
		}
		body := rest[:need]
		want := binary.LittleEndian.Uint32(body[need-crcLen:])
		if crc32.ChecksumIEEE(body[4:need-crcLen]) != want {
			return batches, off
		}
		ops := make([]Op, count)
		p := headerLen
		for i := range ops {
			ops[i] = Op{
				Del: body[p] != 0,
				Src: binary.LittleEndian.Uint64(body[p+1:]),
				Dst: binary.LittleEndian.Uint64(body[p+9:]),
			}
			p += opLen
		}
		lsn = gotLSN
		batches = append(batches, Batch{LSN: lsn, Ops: ops})
		off += int(need)
	}
}

// Stats counts a log's lifetime activity.
type Stats struct {
	// Appends is committed Append calls; AppendedBytes their frame bytes.
	Appends       int64 `json:"appends"`
	AppendedBytes int64 `json:"appended_bytes"`
	// Fsyncs counts physical fsync calls: one per append that got as far.
	Fsyncs int64 `json:"fsyncs"`
	// ReplayedBatches and TruncatedBytes describe the last Open: committed
	// batches recovered, and torn-tail bytes discarded.
	ReplayedBatches int64 `json:"replayed_batches"`
	TruncatedBytes  int64 `json:"truncated_bytes"`
	// Crashes counts injected crash points this log absorbed.
	Crashes int64 `json:"crashes"`
}

// Options configures Open.
type Options struct {
	// Faults, when non-nil, injects crash points into appends and fsyncs.
	Faults *fault.Injector
	// Trace, when non-nil, receives walappend/walfsync/walreplay spans
	// (wall-clock durations on the host track).
	Trace *trace.Recorder
}

// Log is an append-only, CRC-framed write-ahead log. All methods are safe
// for concurrent use; an Append writes and fsyncs its frame under the log's
// lock, so concurrent Appends take turns, one fsync each, and the accessors
// (Stats, LSN, ...) wait out an fsync in flight.
type Log struct {
	inj *fault.Injector
	rec *trace.Recorder

	mu     sync.Mutex
	f      *os.File
	lsn    uint64 // last written LSN
	size   int64  // valid bytes written
	dead   bool   // injected crash: the "process" is gone
	closed bool
	stats  Stats
}

// Open opens (creating if absent) the log at path, replays its committed
// prefix, truncates any torn tail, and returns the recovered batches in
// LSN order. The caller applies them to its base state before appending
// new batches.
func Open(path string, opts Options) (*Log, []Batch, error) {
	start := time.Now()
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("wal: reading %s: %w", path, err)
	}
	batches, validLen := Replay(data)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: opening %s: %w", path, err)
	}
	if int64(validLen) < int64(len(data)) {
		if err := f.Truncate(int64(validLen)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
		}
	}
	if _, err := f.Seek(int64(validLen), 0); err != nil {
		f.Close()
		return nil, nil, err
	}
	l := &Log{inj: opts.Faults, rec: opts.Trace, f: f, size: int64(validLen)}
	if n := len(batches); n > 0 {
		l.lsn = batches[n-1].LSN
	}
	l.stats.ReplayedBatches = int64(len(batches))
	l.stats.TruncatedBytes = int64(len(data) - validLen)
	l.span(trace.WALReplay, start)
	return l, batches, nil
}

// span records a wall-clock trace span starting at start and ending now.
func (l *Log) span(kind trace.Kind, start time.Time) {
	if l.rec == nil {
		return
	}
	s, e := sim.Time(start.UnixNano()), sim.Time(time.Now().UnixNano())
	l.rec.Add(trace.Span{GPU: -1, Stream: -1, Kind: kind, Page: -1, Level: -1, Start: s, End: e})
}

// LSN returns the last written LSN (the next Append gets LSN()+1).
func (l *Log) LSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lsn
}

// Size returns the log's valid byte length.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Dead reports whether an injected crash killed this log. A dead log
// refuses all further writes; recovery is reopening the file.
func (l *Log) Dead() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dead
}

// Append frames ops, writes the record and fsyncs it: it returns once the
// record is durable. The returned LSN is the batch's commit version. Under
// an injected crash the log goes dead and Append returns an error wrapping
// fault.ErrCrash; bytes already written (a torn prefix, or a full record
// whose fsync crashed) stay in the file for recovery to judge.
func (l *Log) Append(ops []Op) (uint64, error) {
	start := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.dead {
		return 0, fmt.Errorf("wal: log is dead after a crash: %w", fault.ErrCrash)
	}
	frame := AppendFrame(nil, l.lsn+1, ops)
	mode, frac := l.inj.WALAppendPoint()
	switch mode {
	case fault.CrashBefore:
		l.dead = true
		l.stats.Crashes++
		return 0, fmt.Errorf("wal: crash before append: %w", fault.ErrCrash)
	case fault.CrashTorn:
		// A strict prefix of the frame reaches the file, then the process
		// dies. The tear lands mid-record by construction: at least one
		// byte written, at least one byte missing.
		n := int(frac * float64(len(frame)))
		if n < 1 {
			n = 1
		}
		if n >= len(frame) {
			n = len(frame) - 1
		}
		if _, err := l.f.Write(frame[:n]); err != nil {
			return 0, err
		}
		l.f.Sync()
		l.dead = true
		l.stats.Crashes++
		return 0, fmt.Errorf("wal: crash mid-record (%d/%d bytes): %w", n, len(frame), fault.ErrCrash)
	}
	if _, err := l.f.Write(frame); err != nil {
		return 0, err
	}
	// The frame is in the file: its LSN is taken whether or not the fsync
	// below succeeds, so the next append never reuses it.
	l.lsn++
	l.size += int64(len(frame))
	l.stats.Appends++
	l.stats.AppendedBytes += int64(len(frame))
	l.span(trace.WALAppend, start)

	// An injected crash here models dying during the fsync: the bytes are
	// durable (we fsync anyway, deterministically) but no ack returns.
	crash := l.inj.WALSyncPoint()
	start = time.Now()
	err := l.f.Sync()
	l.stats.Fsyncs++
	l.span(trace.WALFsync, start)
	if crash {
		l.dead = true
		l.stats.Crashes++
		err = fmt.Errorf("wal: crash during fsync: %w", fault.ErrCrash)
	}
	return l.lsn, err
}

// Close syncs and closes the file. A dead log closes without syncing (the
// "process" already died).
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.dead {
		return l.f.Close()
	}
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}
