# Tier-1 verification lives here so CI and humans run the same thing:
#   make ci        — build + tests + race pass + vet + coverage gate + fuzz smoke
#                    + the bench/ module's own checks + results/ freshness
GO ?= go
FUZZTIME ?= 10s

.PHONY: build test test-race vet cover fuzz bench bench-check results-check loc loc-check ci

# build also compiles the bench/ module (see bench-check): it pins the root
# API, which the root module's own build never checks against it.
build:
	$(GO) build ./...
	cd bench && $(GO) build ./...

test: build
	$(GO) test ./...

# The concurrency-bearing packages (the simulation core, whose processes
# are coroutines Run's goroutine switches between, the gtsd service
# layer, the shared trace recorder and histograms, the shared host page
# pool, the write-ahead log's concurrent appends, the hardware model, the
# graph's reverse-index holder, which concurrent runs share, and the root
# package's System guards) must stay clean under the race detector. The
# chaos tests (fault-injected gtsd under concurrent clients; two Systems
# hammering one BufferPool under storage faults + device OOM; trace export
# racing live span emission; randomized ingest crashes under concurrent
# queries in TestChaosIngestRecovery) run here too.
test-race:
	$(GO) test -race ./internal/sim/... ./internal/slottedpage/... ./internal/bufpool/... ./internal/core/... ./internal/incremental/... ./internal/kernels/... ./internal/service/... ./internal/trace/... ./internal/hw/... ./internal/obs/... ./internal/wal/...
	$(GO) test -race -run 'System|Pool|Open|Concurrent|Chaos|Ingest' .

vet:
	$(GO) vet ./...

# Coverage gate over the simulation core (dispatcher, primitives and
# their failure paths; measures ~98), the observability stack, the shared
# host page pool, and the kernel operator layer: the trace recorder and
# exporters, the histogram math, the service job path, the bufpool
# pin/eviction machinery, and the kernels package (direction-optimizing BFS
# included). Floors sit a
# few points under the measured baseline so real regressions fail while
# small refactors don't.
cover:
	@set -e; for spec in ./internal/sim=90 ./internal/trace=85 ./internal/obs=90 ./internal/service=80 ./internal/bufpool=85 ./internal/kernels=87 ./internal/wal=85 ./internal/incremental=85; do \
		pkg=$${spec%=*}; floor=$${spec#*=}; \
		$(GO) test -coverprofile=coverage.tmp.out $$pkg >/dev/null; \
		pct=$$($(GO) tool cover -func=coverage.tmp.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
		rm -f coverage.tmp.out; \
		echo "coverage $$pkg: $$pct% (floor $$floor%)"; \
		awk -v p="$$pct" -v f="$$floor" 'BEGIN { exit (p+0 < f+0) }' || \
			{ echo "FAIL: $$pkg coverage $$pct% below floor $$floor%"; exit 1; }; \
	done

# Short fuzz smoke over the slotted-page codec, the host page pool, and
# the direction switch: each target gets FUZZTIME of coverage-guided input
# on top of the checked-in corpora. FuzzStoreRead hands each input to
# slottedpage.Read, the store format's one decoder: it never panics, and a
# store it accepts validates and re-encodes. FuzzPoolOps decodes arbitrary bytes
# into pool op scripts and replays them against the reference-model
# oracle; FuzzDirectionSwitch builds adversarial frontier densities and
# checks push-only, pull-only, and adaptive BFS agree with the plain
# kernel; FuzzSSSPStrategies runs SSSP over arbitrary graphs on 1-3 GPUs
# under Strategy-P or -S against the reference distances (the replica merge
# of distances and frontier bits); FuzzDeltaExpand replays adversarial (delete-heavy) ingest batches
# through the retained-state planners against the full-recompute oracle.
# FuzzAdjDecode hands arbitrary page bytes under arbitrary field widths to
# the page Decoder (Record + VID, what every kernel reads pages through) and
# to the field-by-field byte-loop decode: same VIDs, or the same failure,
# and no read past the page. FuzzReversePatch derives a graph and a chain of
# ingest batches (inserts, deletes, repeats, self loops, vertex growth) and
# patches the reverse index epoch by epoch: each equal to a fresh build.
# FuzzVectorJSON
# feeds arbitrary element bits of every result-vector kind to gtsd's job
# encoder and to encoding/json: the same bytes, or both refuse. FuzzBFSGroup
# derives a graph, 2-20 plain-BFS sources (about half of them k-hop balls,
# hop-capped BFS) from a seed and runs them in lock step as one
# kernels.MultiBFS and as one solo kernel each: every (level, lane, page)
# Result and next-page set equal, and a lane whose page set empties stays
# done.
# FuzzHTTPRequests sends gtsd's handler runs (any algorithm segment, timeout
# and mode), ingest batches and graph loads with arbitrary bodies: no panic,
# no 5xx but an expired deadline's 504, and every 2xx body valid JSON.
# FuzzEdges generates R-MAT edge lists for arbitrary seeds, scales (1-12),
# edge factors and noise, on one worker and on two, against the sequential
# math/rand loop the bulk generator replaced: the same edges, bit for bit.
# Go allows one -fuzz target per invocation, hence the separate runs.
fuzz:
	$(GO) test ./internal/slottedpage -run '^$$' -fuzz '^FuzzStoreRead$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/slottedpage -run '^$$' -fuzz '^FuzzAdjDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/slottedpage -run '^$$' -fuzz '^FuzzPageValidate$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/slottedpage -run '^$$' -fuzz '^FuzzStoreRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/slottedpage -run '^$$' -fuzz '^FuzzReversePatch$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/bufpool -run '^$$' -fuzz '^FuzzPoolOps$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/kernels -run '^$$' -fuzz '^FuzzBFSGroup$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzDirectionSwitch$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzSSSPStrategies$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wal -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/incremental -run '^$$' -fuzz '^FuzzDeltaExpand$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/service -run '^$$' -fuzz '^FuzzVectorJSON$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/service -run '^$$' -fuzz '^FuzzHTTPRequests$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/rmat -run '^$$' -fuzz '^FuzzEdges$$' -fuzztime $(FUZZTIME)

# The root package's end-to-end benchmarks (BenchmarkOpenMutable: recovery
# with 8 and 800 batches in the WAL), then the three layers under every
# host-clock number: the page kernels (BenchmarkPageKernels: ns/edge per
# kernel), the slotted pages (BenchmarkAdjDecode: the page decoder;
# BenchmarkBuildReverse and BenchmarkPatchReverse: the graph's reverse index,
# built fresh and patched by a 64-edge commit; BenchmarkApplyBatch: the
# commit itself, at -cpu 1 and 2, where a parallel Build would show), the
# R-MAT generator every load regenerates a graph with (BenchmarkEdges: ns
# per edge at RMAT27@11's parameters, at -cpu 1 and 2, since it runs on
# every core) and the simulator's turn-taking (BenchmarkSimHandoff: ns per
# blocking call);
# and the service's two verdict benchmarks: BenchmarkJobResponse and
# BenchmarkIncrementalVsFull (wall of a bfs/cc delta-expansion against a full
# run of the same request; inc/full is the ratio ROADMAP item 4 (d) gates).
bench:
	$(GO) test -bench=. -benchmem -run '^$$' . ./internal/kernels ./internal/sim ./internal/service
	$(GO) test -bench=. -benchmem -run '^$$' -cpu 1,2 ./internal/slottedpage ./internal/rmat

# bench/ is a Go module of its own (repro/bench, replace repro => ../): the
# root `go build ./...` and `go test ./...` never compile it, yet it imports
# repro/internal/..., so a change to an internal API can break the
# repository's benchmark without any lane above noticing. This lane vets and
# tests that module and runs three workloads end to end at smoke scale (the
# run verifies every result it times and exits non-zero on a mismatch or a
# failed operation): scan-mem; stream-ssd for its eight BFS, which run as
# one multi-source BFS (kernels.MultiBFS) — the only place a CI lane runs it
# through storage and the host pool; and serve-live, the only workload that
# goes through internal/service (its async burst polls every job it
# submitted, so a retention change that loses an answer fails here).
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...
	bash bench/run.sh -smoke -workload scan-mem
	bash bench/run.sh -smoke -workload stream-ssd
	bash bench/run.sh -smoke -workload serve-live

# results-check regenerates results/ (deterministic, ~40 s) into a temporary
# directory and fails on any difference from the committed files, so a PR
# that moves a figure has to commit the move.
results-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
		$(GO) run ./cmd/gtsbench -exp all -csv $$tmp/csv > $$tmp/gtsbench.txt && \
		diff -r $$tmp results || { echo "FAIL: results/ is stale; regenerate with: go run ./cmd/gtsbench -exp all -csv results/csv > results/gtsbench.txt"; exit 1; }

# loc prints the non-test Go lines (wc -l: code, comments and blanks) of
# every package of the root module, the total, the sum ROADMAP's "one
# engine, one execute path" item is measured on, and the two option counts
# ROADMAP's bars quote: gtsd's flags (as its own -h lists them) and
# gts.Config's fields.
loc:
	@for d in $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -exec dirname {} \; | sort -u); do \
		printf '%6d %s\n' $$(ls $$d/*.go | grep -v '_test\.go$$' | xargs cat | wc -l) $$d; \
	done
	@printf '%6d total\n' $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | xargs cat | wc -l)
	@printf '%6d internal/core + internal/service + gts.go + cmd/gtsd/main.go\n' \
		$$( { ls internal/core/*.go internal/service/*.go | grep -v '_test\.go$$'; echo gts.go cmd/gtsd/main.go; } | xargs cat | wc -l)
	@printf '%6d internal/core + internal/service\n' \
		$$(ls internal/core/*.go internal/service/*.go | grep -v '_test\.go$$' | xargs cat | wc -l)
	@printf '%6d gtsd flags\n' $$($(GO) run ./cmd/gtsd -h 2>&1 | grep -c '^  -')
	@printf '%6d gts.Config fields\n' \
		$$(awk '/^type Config struct/{f=1;next} f&&/^}/{exit} f&&/^\t[A-Z]/{n++} END{print n}' gts.go)

# loc-check fails when a count `make loc` prints exceeds the ceiling written
# here. The ceilings are the counts of the last change that moved them, so a
# count can only go down, and a change that has to raise one says so by
# editing the number beside it and naming the lines in CHANGES.md.
LOC_MAX_TOTAL = 18578
LOC_MAX_ENGINE_AND_API = 4630
LOC_MAX_ENGINE = 3657
LOC_MAX_GTSD_FLAGS = 9
LOC_MAX_CONFIG_FIELDS = 12
loc-check:
	@$(MAKE) -s loc | awk ' \
		function check(what, got, max) { \
			printf "%6d %s (ceiling %d)\n", got, what, max; seen++; \
			if (got > max) { printf "FAIL: %s: %d is over the ceiling of %d in the Makefile\n", what, got, max; bad = 1 } \
		} \
		$$2 == "total" { check("non-test Go lines", $$1, $(LOC_MAX_TOTAL)) } \
		/service \+ gts.go \+ cmd\/gtsd\/main.go$$/ { check("core + service + gts.go + gtsd main", $$1, $(LOC_MAX_ENGINE_AND_API)) } \
		/\+ internal\/service$$/ { check("core + service", $$1, $(LOC_MAX_ENGINE)) } \
		$$2 == "gtsd" { check("gtsd flags", $$1, $(LOC_MAX_GTSD_FLAGS)) } \
		$$2 == "gts.Config" { check("gts.Config fields", $$1, $(LOC_MAX_CONFIG_FIELDS)) } \
		END { if (seen != 5) { print "FAIL: make loc printed " seen+0 " of the 5 counted lines"; bad = 1 }; exit bad }'

ci: build test test-race vet cover fuzz bench-check results-check loc-check
