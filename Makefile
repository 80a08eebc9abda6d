# Developer workflow. `make check` is the local gate: static checks, build,
# the full test suite under the race detector, and one iteration of the
# incremental-engine benchmark family as a smoke test.

GO ?= go

.PHONY: all build vet fmt-check test race bench-smoke bench-compare bench-check loc snapshot stress trace-demo check check-ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -w needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One iteration per benchmark case: catches pathological engine regressions
# without benchmark-grade runtimes (see EXPERIMENTS.md E16).
bench-smoke:
	$(GO) test -run '^$$' -bench BenchmarkGammaIncremental -benchtime 1x .

# Wake-policy comparison gate: run e16 under both policies and fail unless
# the incremental policy's wall time is strictly below the full rescan on the
# multi-reaction workloads at n=10^4 (single-reaction programs run identically
# under both, so only their probe counts are checked).
bench-compare:
	$(GO) run ./cmd/gfbench -exp e16 -guard

# bench/ is its own module (replace repro => ../), so `go test ./...` never
# compiles it: vet and test it against the current internals here, or an
# internal signature change breaks the benchmark silently.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Non-test Go outside bench/, per package: total lines and code lines (blank
# and comment-only lines excluded). The size criterion of simplification PRs.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | sort | xargs awk ' \
		FNR == 1 { d = FILENAME; sub("/[^/]*$$", "", d) } \
		{ lines[d]++; tl++ } \
		$$0 !~ /^[[:space:]]*($$|\/\/)/ { code[d]++; tc++ } \
		END { for (d in lines) printf "%6d %6d %s\n", lines[d], code[d], d; \
		      printf "%6d %6d total\n", tl, tc }' | sort -k3 | sed '1i\ lines   code package'

# Refresh the machine-readable matching-engine measurements (sequential
# engines via e16, work-stealing parallel rows via e20, gammad service load
# rows via e21, matrix dataflow engine rows via e22, service trace-overhead
# rows via e23).
snapshot:
	$(GO) run ./cmd/gfbench -exp e16,e20,e21,e22,e23,e24 -bench-json BENCH_gamma.json

# Observability demo: trace the paper's Fig. 1 program and emit a
# Perfetto-loadable timeline (open trace.json at https://ui.perfetto.dev) plus
# the provenance DAG as DOT — the run rendered as the paper's dataflow graph.
trace-demo:
	$(GO) run ./cmd/gammarun -trace trace.json -trace-format perfetto -metrics examples/fig1.gamma
	$(GO) run ./cmd/gammarun -trace fig1-provenance.dot -trace-format dot examples/fig1.gamma
	@echo "wrote trace.json (Perfetto) and fig1-provenance.dot (Graphviz)"

# Cancellation / fault-model stress: the context, panic-recovery and
# dead-node tests under the race detector, plus the compiled-vs-interpreted
# differential suites (kernel matcher, expression compiler, pure dataflow
# ops, batched multiset commits, steal-scheduler determinism and batch-vs-
# sequential equivalence, three-way dataflow engine differentials (goldens,
# random programs, and random wide- and loop-shaped graphs on the firing
# core), the service-side traced-run differential: per-tenant/per-engine registry
# rollups equal the global registry exactly under concurrent load, and the
# record/replay differentials: a parallel run's commit-order schedule must
# replay sequentially to the byte-identical final state, and the provenance
# and work/span folds over it must be commit-order exact) — DESIGN.md §9,
# §10, §12, §14, §15 and §16 — and the multiset's list-recycling churn tests
# (View readers enumerating while a writer drains index lists to empty and
# refills them from the shard freelist). Last, the label-free matcher's
# scaling gate in its count-only form (the race detector switches its
# wall-clock half off): candidates per step on Eq. 2 across layouts, sizes
# and matcher modes.
stress:
	$(GO) test -race -count=2 -run 'Cancel|Panic|Fault|Dead|Deadline|Wedge|Retr|Differential|KernelMatches|ApplyDelta|Steal|Batch|Rollup|Replay|Churn|Recycled' \
		./internal/gamma/ ./internal/dataflow/ ./internal/dist/ ./internal/rt/ \
		./internal/expr/ ./internal/multiset/ ./internal/equiv/ \
		./internal/service/ ./internal/telemetry/ ./internal/replay/ .
	$(GO) test -race -timeout 5m -run 'TestLabelFreeScaling' ./internal/gamma/

check: vet fmt-check build race bench-smoke bench-check

# CI gate: like check but with explicit timeouts so a wedged pool fails the
# build instead of hanging it. The engine-comparison guard runs in its
# tournament-only short mode: CI machines are noisy, but a 4x-fewer-probes
# engine losing outright is a regression, not noise. The parallel
# differential suites repeat under GOMAXPROCS=2 and GOMAXPROCS=8 so the
# steal scheduler is exercised both time-sliced on few cores and genuinely
# concurrent; the bench smoke compares against the committed BENCH_gamma.json
# snapshot within tolerance (step counts exact, probes and wall bounded).
# The serving stack gates three ways: gammad -selfcheck boots the server on a
# loopback port and drives the client-package smoke (lifecycle, taxonomy
# over the wire, backpressure, trace/stats fetch, schedule replay, Prometheus
# exposition), gfbench e21 puts it under closed-loop load with the p99
# collapse guard and the per-response oracle check, gfbench e23 A/Bs traced
# against untraced load with the trace-overhead ceilings (sampled-off 2%,
# sampled-on 10%), and gfbench e24 guards the schedule recorder (≤25% on the
# reference workload). Record/replay gates twice more: the byte-pinned
# Fig. 1/Fig. 2 golden replays, and the parallel-record → sequential-replay
# differentials under the race detector. The label-free matcher's scaling gate
# runs once more without the race detector, which is the only build where its
# wall-time exponent is measured; e20 -guard carries the absolute ceiling on
# sequential Eq. 2 at n=10^5. Next to it the allocation-scaling gate: bytes
# per Gamma step on the converted Fig. 2 loop must be flat in the trip count
# and under 1 kB, so per-firing storage set-up cannot silently return; and its
# dataflow twin: allocations and bytes per vertex firing on the wide graph must
# be flat in the width and under 1 allocation / 300 B on all three engines.
check-ci: vet fmt-check build bench-check
	$(GO) test -race -timeout 5m ./...
	$(GO) test -race -timeout 2m -count=2 -run 'Cancel|Panic|Fault|Dead' \
		./internal/gamma/ ./internal/dataflow/ ./internal/dist/
	GOMAXPROCS=2 $(GO) test -race -timeout 2m -count=2 -run 'Steal|Batch|Differential' ./internal/gamma/
	GOMAXPROCS=8 $(GO) test -race -timeout 2m -count=2 -run 'Steal|Batch|Differential' ./internal/gamma/
	$(GO) test -race -timeout 2m -count=2 -run 'Golden|Replay' ./internal/replay/ ./internal/service/ ./cmd/gammarun/ ./cmd/dfrun/
	$(GO) test -timeout 2m -count=1 -run 'TestLabelFreeScaling' ./internal/gamma/
	$(GO) test -timeout 2m -count=1 -run 'TestLoopAllocScaling' .
	$(GO) test -timeout 2m -count=1 -run 'TestWideAllocShape' ./internal/dataflow/
	$(GO) run ./cmd/gammad -selfcheck
	$(GO) run ./cmd/gfbench -exp e16,e20,e21,e22,e23,e24 -short -guard -baseline BENCH_gamma.json
