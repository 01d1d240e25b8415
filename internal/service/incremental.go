package service

import gts "repro"

// This file is the incremental planner: it resolves a retaining request (a
// bfs or cc job on a retaining graph) against its prior — the newest
// answered run of the same request on the same graph load, which the job
// table still holds — and the graph's commit chain (MutableGraph.Delta) into
// a plan: a delta-expansion hit, or a full run counted as a fallback. The
// plan runs through the same pipeline as every other job (execute.go), and
// the finished run becomes the request's next prior. Results are
// byte-identical to the normal path by the incremental package's exactness
// contract, so they share the same result cache and single-flight keys.

// priorKey names one request's runs across the epochs of one graph load: its
// load generation, algorithm and normalized params, but no epoch, so a
// request finds its newest run whatever epoch that ran on, and a reload (a
// new generation) finds none from before it.
type priorKey struct {
	gen  uint64
	algo string
	p    Params
}

// planIncremental resolves how to run a retaining request: delta-expansion
// from its prior when safe, otherwise a full run counted as a fallback;
// either way the run becomes the request's prior when it finishes
// (execute), except on a multi-GPU graph, whose replicas merge state in
// ways the delta planners do not model: there it is refused, and nothing
// becomes a prior.
func (s *Server) planIncremental(job *Job, g *gts.Graph, r replan) plan {
	p := job.req.Params
	pl := plan{job: gts.SharedJob{Source: p.Source}, retain: true}
	if job.entry.sys.Config().GPUs > 1 {
		pl.fallback, pl.retain = "multi-gpu", false
	} else if prior, ops, reason := s.lookupPrior(job); reason != "" {
		pl.fallback = reason
	} else if k, seeds, reason := r(g, prior.result.Output, ops); reason != "" {
		pl.fallback = reason
	} else {
		pl.job.Kernel, pl.hit, pl.seeds, pl.priorFull = k, true, seeds, prior.fullPages
		return pl
	}
	pl.job.Kernel = job.algo.Kernel(g, p)
	return pl
}

// lookupPrior returns job's prior and the ops that replay it to job's
// snapshot, or why there is none. The chain may have committed past that
// snapshot: the ops stop there, and a prior that ran past it is refused.
func (s *Server) lookupPrior(job *Job) (*Job, []gts.EdgeOp, string) {
	s.mu.Lock()
	prior := s.priors[job.prior]
	s.mu.Unlock()
	if prior == nil {
		return nil, nil, "no-retained-state"
	}
	if prior.epoch > job.epoch {
		return nil, nil, "entry-after-snapshot"
	}
	ops, ok := job.entry.mg.Delta(prior.epoch, job.epoch)
	if !ok {
		return nil, nil, "no-retained-state"
	}
	return prior, ops, ""
}

// retained counts e's graph load's priors. s.mu held.
func (s *Server) retained(e *graphEntry) int {
	n := 0
	for k := range s.priors {
		if k.gen == e.gen {
			n++
		}
	}
	return n
}
