# protoclust build and reproduction targets.

GO ?= go

.PHONY: all build test test-short test-noasm test-race test-service test-oracle golden-check golden-update vet lint bench bench-check bench-json bench-scaling smoke-tiled smoke-distributed smoke-sweep smoke-format eval fuzz serve clean

all: build lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Full lint gate: go vet, the nine domain analyzers (cmd/protoclustvet:
# ctxflow, determinism, detflow, errdiscard, floatcmp, goroleak,
# idxoverflow, mutexhold, nanguard — see docs/linting.md), and
# staticcheck when it is on PATH. vet and protoclustvet are stdlib-only
# and always run; staticcheck needs a network install, so it is skipped
# (loudly) when absent.
lint: vet
	$(GO) run ./cmd/protoclustvet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (CI installs and enforces it)"; \
	fi

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# The assembly-free build: the noasm tag compiles out the SIMD kernels,
# so this shard proves the scalar fallback alone passes the full suite
# (and that no code path depends on an arch kernel being present).
test-noasm:
	$(GO) test -tags noasm ./...

# Race detector over the concurrent matrix build, k-NN selection, and
# the rest of the pipeline.
test-race:
	$(GO) test -race -short ./...

# Race detector over the analysis service and the distribution
# subsystem: worker pool, cancellation, cache, HTTP lifecycle, shard
# queue/lease lifecycle, the durable job log, and the configuration-
# sweep harness (shared-matrix fan-out; the full suites, not just
# -short).
test-service:
	$(GO) test -race ./internal/service/ ./cmd/protoclustd/ ./internal/shard/ ./internal/jobstore/ ./internal/sweep/

# Differential tests of the production pipeline against the
# obviously-correct reference implementations in internal/oracle, under
# the race detector. See docs/testing.md.
test-oracle:
	$(GO) test -race ./internal/oracle/ ./internal/dbscan/ ./internal/ecdf/ ./internal/kneedle/ ./internal/vecmath/ ./internal/spline/ ./internal/core/

# Golden-trace regression check: re-run the pipeline on the seeded
# trace set and compare ε, k, cluster counts, and quality metrics
# against testdata/golden/. Runs twice — once on the default matrix
# backend and once forced through the bounded-memory tiled backend,
# against the same records, since every backend must produce
# bit-identical labels. See docs/testing.md.
golden-check:
	$(GO) run ./cmd/goldencheck -format
	$(GO) run ./cmd/goldencheck -backend tiled

# Regenerate the golden records after an intentional pipeline change;
# review the diff before committing it.
golden-update:
	$(GO) run ./cmd/goldencheck -update -format

# Run the analysis daemon locally. See docs/service.md for the API and
# a curl walkthrough.
serve:
	$(GO) run ./cmd/protoclustd -addr :8077

# Regenerates every benchmark, including one run per paper table/figure.
bench:
	$(GO) test -bench=. -benchmem ./...

# Compiles, vets and tests the benchmark module. perfbench/ is its own
# Go module (replace protoclust => ../), so neither `go build ./...` nor
# `go test ./...` at the root reaches it; this is the gate that catches
# an API change in the main module breaking the benchmark.
bench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Regenerates the perf-trajectory artifact for the dissimilarity hot
# path: per-kernel shard (every compiled SIMD kernel vs scalar and the
# PR-1 baseline), kernel, matrix build, and k-NN table per backend
# (dense / condensed / tiled) at n = 500/2000/8000, plus the GOMAXPROCS
# scaling sweep. See docs/tuning.md § Performance.
bench-json:
	$(GO) run ./cmd/benchperf -out BENCH_6.json

# Quick GOMAXPROCS cores-vs-throughput sweep only (matrix build, k-NN
# table, tiled pass). Non-blocking CI smoke; meaningful numbers need a
# multicore host.
bench-scaling:
	$(GO) run ./cmd/benchperf -scaling-only -scaling-n 500 -out /dev/null

# End-to-end smoke of the tiled out-of-core backend: cluster an n=5000
# synthetic pool under a deliberately tiny tile budget (with spill) and
# cross-check the labels bit-for-bit against the condensed backend,
# under a GOMEMLIMIT that a resident matrix of that size would respect
# anyway but a leaking tile cache would not.
smoke-tiled:
	GOMEMLIMIT=768MiB $(GO) run ./cmd/benchperf -e2e-n 5000 -e2e-budget 4194304 -out /dev/null

# End-to-end smoke of the distributed coordinator/worker path: builds
# the protoclustd and protoclust-worker binaries, launches one
# coordinator (durable jobstore, 2s shard leases) plus two workers,
# SIGKILLs one worker while it holds a lease mid-run, and requires that
# the surviving worker steals the expired lease and the job's report is
# byte-identical to a single-process run. See docs/service.md.
smoke-distributed:
	$(GO) run ./cmd/smokedist

# End-to-end smoke of the configuration-sweep harness: a 24-config grid
# (2 segmenters × 2 clusterers × 3 k's × 2 ε-sources, with ensembles)
# over one golden trace. Requires zero failed configs, exactly one
# matrix build per segmenter, the paper's reference configuration on
# the Pareto front, and a byte-identical report on a second run.
smoke-sweep:
	$(GO) run ./cmd/smokesweep

# End-to-end smoke of field-type recognition: templates trained on one
# golden trace (seed 1) recognize a second trace (seed 2) per protocol.
# Requires per-protocol type-accuracy and byte-coverage floors, a
# template save/load round trip, and byte-identical schema JSON across
# two independent runs.
smoke-format:
	$(GO) run ./cmd/smokeformat

# Regenerates Tables I/II, Figures 2/3, and the coverage comparison.
eval:
	$(GO) run ./cmd/evaltables -all

# Short fuzzing pass over the hardened parsers and segmenters, and the
# differential targets of the numeric kernels.
fuzz:
	$(GO) test -run XXX -fuzz FuzzReader -fuzztime 10s ./internal/pcap/
	$(GO) test -run XXX -fuzz FuzzExtractPayload -fuzztime 10s ./internal/pcap/
	$(GO) test -run XXX -fuzz FuzzSegmentMessage -fuzztime 10s ./internal/segment/nemesys/
	$(GO) test -run XXX -fuzz FuzzSegment -fuzztime 10s ./internal/segment/csp/
	$(GO) test -run XXX -fuzz FuzzSegment -fuzztime 10s ./internal/segment/netzob/
	$(GO) test -run XXX -fuzz 'FuzzDissimilarity$$' -fuzztime 10s ./internal/canberra/
	$(GO) test -run XXX -fuzz FuzzKernelDifferential -fuzztime 10s ./internal/canberra/
	$(GO) test -run XXX -fuzz FuzzKernelCross -fuzztime 10s ./internal/canberra/
	$(GO) test -run XXX -fuzz FuzzFind -fuzztime 10s ./internal/kneedle/
	$(GO) test -run XXX -fuzz FuzzSmoothMatchesOracle -fuzztime 10s ./internal/spline/
	$(GO) test -run XXX -fuzz FuzzClusterMatchesOracle -fuzztime 10s ./internal/dbscan/

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
