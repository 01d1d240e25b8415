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
	if spec == "" {
		return nil, fmt.Errorf("%w: empty graph spec", ErrInvalid)
	}
	if strings.HasSuffix(spec, ".gts") {
		return LoadGraph(spec)
	}
	if _, err := os.Stat(spec); err == nil {
		return LoadGraph(spec)
	}
	dataset, shrink := spec, DefaultShrink
	if at := strings.LastIndexByte(spec, '@'); at >= 0 {
		n, err := strconv.Atoi(spec[at+1:])
		if err != nil || n < 0 {
			return nil, fmt.Errorf("%w: bad shrink in graph spec %q (want dataset@N)", ErrInvalid, spec)
		}
		dataset, shrink = spec[:at], n
	}
	g, err := Generate(dataset, shrink)
	if err != nil {
		return nil, fmt.Errorf("%w: opening spec %q: %w", ErrInvalid, spec, err)
	}
	return g, nil
}
