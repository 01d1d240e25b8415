package service

import (
	"encoding/json"

	gts "repro"
	"repro/internal/incremental"
)

// This file is the incremental planner: it resolves a job against the
// graph's retained-state store into a plan (delta-expansion hit, fallback,
// or plain full run) whose capture hook retains fresh state on completion.
// The plan runs through the same pipeline as every other job (execute.go).
// Results are byte-identical to the normal path by the incremental
// package's exactness contract, so they share the same result cache and
// single-flight keys.

// incKey keys retained entries by (algo, normalized params); the epoch is
// carried on the entry, not the key, so a stale entry is found (and
// migrated) rather than orphaned.
func incKey(algo string, p Params) string {
	buf, _ := json.Marshal(p)
	return algo + "?" + string(buf)
}

// planIncremental resolves how to run a job whose algorithm retains state
// (r): delta-expansion from a retained entry when requested and safe,
// otherwise a full run; either way the completed run is captured as the
// key's fresh entry.
func planIncremental(entry *graphEntry, g *gts.Graph, job *Job, r retainer) plan {
	p := job.req.Params
	key := incKey(job.req.Algo, p)
	pl := plan{job: gts.SharedJob{Source: p.Source}}
	if job.req.Incremental {
		if prior, delta, ok := entry.inc.Lookup(key); !ok {
			pl.fallback = "no-retained-state"
		} else if k, seeds, reason := r.replan(g, prior, delta); reason != "" {
			pl.fallback = reason
		} else {
			pl.job.Kernel, pl.hit, pl.seeds, pl.priorFull = k, true, seeds, prior.FullPages
			pl.capture = retain(entry, key, r, prior.FullPages)
			return pl
		}
	}
	pl.job.Kernel = job.algo.Kernel(g, p)
	pl.capture = retain(entry, key, r, -1)
	return pl
}

// retain returns the capture hook that stores a completed run as the
// graph's retained entry for key, at the epoch the job ran on. fullPages is
// the from-scratch page cost the entry remembers: a delta run inherits its
// prior entry's, a full run (fullPages < 0) records its own.
func retain(entry *graphEntry, key string, r retainer, fullPages int64) func(any, gts.Metrics) {
	return func(output any, m gts.Metrics) {
		e := &incremental.Entry{Epoch: entry.epoch, FullPages: fullPages}
		if fullPages < 0 {
			e.FullPages = m.PagesStreamed
		}
		r.retain(e, output)
		entry.inc.Capture(key, e)
	}
}
