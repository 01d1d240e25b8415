package gts

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/slottedpage"
	"repro/internal/trace"
	"repro/internal/wal"
)

// EdgeOp is one directed-edge mutation in an ingest batch: an insert (Del
// false) or a delete of every occurrence (Del true) of Src -> Dst.
type EdgeOp = slottedpage.EdgeOp

// ErrCrashed reports an operation against a MutableGraph whose ingest path
// absorbed an injected crash: the simulated process is dead, and the only
// way forward is reopening the graph (OpenMutable), which replays the WAL.
var ErrCrashed = fault.ErrCrash

// WALStats mirrors the underlying log's counters.
type WALStats = wal.Stats

// MutableGraph is a crash-recoverable, mutable registered graph: a
// slotted-page snapshot chain (slottedpage.Mutable) fronted by a CRC-framed
// write-ahead log. Every Ingest batch is made durable in the WAL before it
// is applied; the apply publishes a new immutable snapshot whose epoch is
// the batch's log sequence number. Reopening the same spec+WAL replays the
// committed batches deterministically, so a crash at any point — before an
// append, mid-record, during the fsync, or during the page swap — recovers
// the exact committed prefix.
type MutableGraph struct {
	mu  sync.Mutex
	mut *slottedpage.Mutable
	log *wal.Log
	inj *fault.Injector
	rec *trace.Recorder

	epoch    atomic.Uint64 // last applied LSN
	dead     atomic.Bool   // an injected crash killed the ingest path
	replayed int           // batches replayed at open
}

// MutableOptions tunes OpenMutable.
type MutableOptions struct {
	// Faults injects crash points into the WAL and the apply path.
	Faults *FaultPlan
	// Trace, when non-nil, receives walappend/walfsync/walreplay spans.
	Trace *trace.Recorder
}

// OpenMutable opens spec (any gts.Open spec: a .gts file or a registry
// dataset) as a mutable graph whose mutation history lives in the WAL at
// walPath. A fresh walPath starts an empty history; an existing one is
// replayed — every committed batch's ops are applied to the freshly loaded
// base graph in LSN order, in one commit. A graph's bytes are a function of
// its edge list alone (the rebuild-equivalence of the mutation path), so
// the one commit recovers the snapshot the batches' own commits published,
// byte for byte, at the last batch's epoch.
//
// The base spec must be stable across reopens (same file or same
// deterministic generator spec); the WAL records only the deltas.
func OpenMutable(spec, walPath string, opts MutableOptions) (*MutableGraph, error) {
	base, err := Open(spec)
	if err != nil {
		return nil, err
	}
	var inj *fault.Injector
	if opts.Faults != nil {
		inj = fault.NewInjector(opts.Faults)
	}
	log, batches, err := wal.Open(walPath, wal.Options{Faults: inj, Trace: opts.Trace})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	mut := slottedpage.NewMutable(base)
	m := &MutableGraph{mut: mut, log: log, inj: inj, rec: opts.Trace, replayed: len(batches)}
	var ops []EdgeOp
	for _, b := range batches {
		ops = append(ops, b.Ops...)
		if err := addressable(b.Ops, base.Config()); err != nil {
			log.Close()
			return nil, fmt.Errorf("gts: replaying WAL batch %d: %w", b.LSN, err)
		}
	}
	if len(batches) > 0 {
		last := batches[len(batches)-1].LSN
		if _, err := mut.ApplyBatch(ops); err != nil {
			log.Close()
			return nil, fmt.Errorf("gts: replaying WAL batches 1-%d: %w", last, err)
		}
		m.epoch.Store(last)
		if opts.Trace != nil {
			s, e := sim.Time(start.UnixNano()), sim.Time(time.Now().UnixNano())
			opts.Trace.Add(trace.Span{GPU: -1, Stream: -1, Kind: trace.WALReplay, Page: -1, Level: -1, Start: s, End: e})
		}
	}
	return m, nil
}

// addressable refuses ops naming a vertex cfg cannot address.
func addressable(ops []EdgeOp, cfg slottedpage.Config) error {
	limit := cfg.MaxAddressableVertices()
	for _, op := range ops {
		if op.Src >= limit || op.Dst >= limit {
			return fmt.Errorf("%w: edge %d->%d exceeds addressable capacity %d", ErrInvalid, op.Src, op.Dst, limit)
		}
	}
	return nil
}

// Snapshot returns the current immutable graph snapshot. Snapshots stay
// valid and internally consistent forever; Systems built over one keep
// computing correct results for that epoch after later mutations.
func (m *MutableGraph) Snapshot() *Graph { return m.mut.Snapshot() }

// Epoch returns the graph's version: the LSN of the last applied batch (0
// before any mutation).
func (m *MutableGraph) Epoch() uint64 { return m.epoch.Load() }

// ReplayedBatches reports how many committed WAL batches OpenMutable
// replayed (0 for a fresh WAL).
func (m *MutableGraph) ReplayedBatches() int { return m.replayed }

// WALStats snapshots the underlying log's counters.
func (m *MutableGraph) WALStats() WALStats { return m.log.Stats() }

// Dead reports whether an injected crash killed the ingest path.
func (m *MutableGraph) Dead() bool { return m.dead.Load() }

// Ingest commits one batch of edge mutations: WAL append + fsync first,
// then the in-memory apply and snapshot publish. It returns the new epoch
// (the batch's LSN).
//
// Under fault injection the batch can die at four points, matching the
// crash matrix the recovery tests sweep:
//
//   - before the append: nothing reached the disk, the batch is lost —
//     recovery serves the previous epoch;
//   - mid-record (torn write): a record prefix reached the disk — recovery
//     truncates it and serves the previous epoch;
//   - during the fsync: the record is durable but unacknowledged —
//     recovery replays it (durability wins the ambiguity);
//   - during the apply/page swap: the record is durable, the in-memory
//     snapshot untouched — recovery replays it.
//
// Every crash marks the MutableGraph dead (ErrCrashed); reopening via
// OpenMutable is the recovery path, exactly as for a real process death.
func (m *MutableGraph) Ingest(ops []EdgeOp) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dead.Load() {
		return 0, fmt.Errorf("gts: mutable graph is dead after a crash: %w", ErrCrashed)
	}
	// Reject unappliable batches BEFORE they reach the log: a durable batch
	// that cannot apply would poison every future replay.
	if err := addressable(ops, m.mut.Snapshot().Config()); err != nil {
		return 0, err
	}
	lsn, err := m.log.Append(ops)
	if err != nil {
		if errors.Is(err, fault.ErrCrash) {
			m.dead.Store(true)
		}
		return 0, err
	}
	if m.inj.ApplyPoint() {
		// Crash during the apply/page-swap: the batch is durable in the WAL
		// but never reaches the in-memory snapshot. Readers keep the old
		// epoch; recovery replays the batch.
		m.dead.Store(true)
		return 0, fmt.Errorf("gts: crash during page swap (batch %d durable, not applied): %w", lsn, ErrCrashed)
	}
	if _, err := m.mut.ApplyBatch(ops); err != nil {
		// Unreachable for batches the pre-check admitted; if it happens the
		// log holds a durable batch the apply path rejects, so fail loudly
		// rather than diverge from what recovery would replay.
		m.dead.Store(true)
		return 0, fmt.Errorf("gts: batch %d durable but unappliable: %w", lsn, err)
	}
	m.epoch.Store(lsn)
	return lsn, nil
}

// FaultStats reports the injected-fault counters (zero-value if no plan).
func (m *MutableGraph) FaultStats() FaultStats { return m.inj.Stats() }

// Close closes the WAL. The current snapshot remains usable.
func (m *MutableGraph) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.log.Close()
}
