package gts

import (
	"context"
	"fmt"
)

// SystemPool is a fixed-size pool of Systems over one graph and one
// configuration, for callers that want concurrent algorithm runs. A single
// System serializes its runs (see the System type comment); a pool of N
// Systems runs up to N algorithms in parallel against the shared immutable
// Graph. The service layer (internal/service) keeps one pool per loaded
// graph.
//
// All pooled Systems share the pool's Config, including Config.Trace: pass
// a recorder only if it is safe for concurrent use (trace.Recorder is).
type SystemPool struct {
	graph *Graph
	cfg   Config
	free  chan *System
	size  int
}

// NewSystemPool builds size Systems over g with cfg. size <= 0 defaults
// to 4. The configuration is validated once, the same way NewSystem does.
// A Config with PoolBytes > 0 gets ONE BufferPool built up front and shared
// by every pooled System: however many Systems run concurrently, the
// graph's hot pages occupy host memory once.
func NewSystemPool(g *Graph, cfg Config, size int) (*SystemPool, error) {
	if size <= 0 {
		size = 4
	}
	cfg, err := cfg.withSharedPool(g)
	if err != nil {
		return nil, err
	}
	p := &SystemPool{graph: g, cfg: cfg, free: make(chan *System, size), size: size}
	for i := 0; i < size; i++ {
		sys, err := NewSystem(g, cfg)
		if err != nil {
			return nil, fmt.Errorf("gts: building pooled system %d/%d: %w", i+1, size, err)
		}
		p.free <- sys
	}
	return p, nil
}

// Graph returns the pooled graph.
func (p *SystemPool) Graph() *Graph { return p.graph }

// Config returns the pooled configuration.
func (p *SystemPool) Config() Config { return p.cfg }

// Size returns the number of Systems in the pool.
func (p *SystemPool) Size() int { return p.size }

// HostPool returns the BufferPool every pooled System shares, or nil when
// the configuration set none (every run then builds a private one).
func (p *SystemPool) HostPool() *BufferPool { return p.cfg.HostPool }

// Idle returns how many Systems are currently unclaimed. It is inherently
// racy and meant for metrics/introspection only.
func (p *SystemPool) Idle() int { return len(p.free) }

// Acquire claims a System, blocking until one is free or ctx is done.
// Every successful Acquire must be paired with Release.
func (p *SystemPool) Acquire(ctx context.Context) (*System, error) {
	select {
	case sys := <-p.free:
		return sys, nil
	default:
	}
	select {
	case sys := <-p.free:
		return sys, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// TryAcquire claims a System without blocking; ok reports success.
func (p *SystemPool) TryAcquire() (sys *System, ok bool) {
	select {
	case sys := <-p.free:
		return sys, true
	default:
		return nil, false
	}
}

// Release returns a System claimed by Acquire or TryAcquire to the pool.
func (p *SystemPool) Release(sys *System) {
	if sys == nil {
		return
	}
	select {
	case p.free <- sys:
	default:
		panic("gts: SystemPool.Release without matching Acquire")
	}
}

// Do runs f with a pooled System, handling Acquire/Release around it.
func (p *SystemPool) Do(ctx context.Context, f func(*System) error) error {
	sys, err := p.Acquire(ctx)
	if err != nil {
		return err
	}
	defer p.Release(sys)
	return f(sys)
}
