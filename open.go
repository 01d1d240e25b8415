package gts

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// DefaultShrink is the dataset down-scaling Open applies when a spec names
// a registry dataset without an explicit "@shrink" suffix. 2^12 keeps every
// registry dataset small enough for interactive use.
const DefaultShrink = 12

// Open is the one load-or-generate path shared by the CLIs, the examples,
// and the gtsd service: it turns a graph spec into a slotted-page Graph.
//
// A spec is either
//
//	a file path         — an existing file, or any spec ending in ".gts",
//	                      read with LoadGraph; or
//	a dataset name      — "RMAT27", "Twitter", ... generated at
//	                      DefaultShrink; or
//	dataset "@" shrink  — "RMAT27@12", generated at the given power-of-two
//	                      down-scaling.
//
// A spec that cannot be generated is ErrInvalid.
func Open(spec string) (*Graph, error) {
	g, src, cfg, err := openSpec(spec)
	if err != nil || g != nil {
		return g, err
	}
	if g, err = BuildGraph(src, cfg); err != nil {
		return nil, fmt.Errorf("%w: opening spec %q: %w", ErrInvalid, spec, err)
	}
	return g, nil
}

// openSpec resolves spec as Open does, short of packing a dataset into
// pages: a store file comes back loaded (g), a dataset as its generated
// edges and the page layout Open would build them with (src, cfg).
func openSpec(spec string) (g *Graph, src Source, cfg PageConfig, err error) {
	if spec == "" {
		return nil, nil, cfg, fmt.Errorf("%w: empty graph spec", ErrInvalid)
	}
	if _, statErr := os.Stat(spec); statErr == nil || strings.HasSuffix(spec, ".gts") {
		g, err = LoadGraph(spec)
		return g, nil, cfg, err
	}
	dataset, shrink := spec, DefaultShrink
	if at := strings.LastIndexByte(spec, '@'); at >= 0 {
		n, err := strconv.Atoi(spec[at+1:])
		if err != nil || n < 0 {
			return nil, nil, cfg, fmt.Errorf("%w: bad shrink in graph spec %q (want dataset@N)", ErrInvalid, spec)
		}
		dataset, shrink = spec[:at], n
	}
	if src, cfg, err = generate(dataset, shrink); err != nil {
		return nil, nil, cfg, fmt.Errorf("%w: opening spec %q: %w", ErrInvalid, spec, err)
	}
	return nil, src, cfg, nil
}
