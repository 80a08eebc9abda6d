# Developer workflow. `make check` is the local gate: static checks, build,
# the full test suite under the race detector, and the bench/ module's own vet
# and tests. Performance is measured by bench/ (BENCHMARK.json) and its shape
# by Go tests; no target here times anything or reads a file a PR regenerates.

GO ?= go

.PHONY: all build vet fmt-check test race bench-check loc stress trace-demo check check-ci

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

# The size criterion as a gate: check-ci fails when the total of `make loc`
# exceeds this. A PR may lower the ceiling, never raise it.
LOC_CEILING = 17864

# Observability demo: trace the paper's Fig. 1 program and emit a
# Perfetto-loadable timeline (open trace.json at https://ui.perfetto.dev) plus
# the provenance DAG as DOT — the run rendered as the paper's dataflow graph.
trace-demo:
	$(GO) run ./cmd/gammarun -trace trace.json -trace-format perfetto -metrics examples/fig1.gamma
	$(GO) run ./cmd/gammarun -trace fig1-provenance.dot -trace-format dot examples/fig1.gamma
	@echo "wrote trace.json (Perfetto) and fig1-provenance.dot (Graphviz)"

# Cancellation / fault-model stress: the context and panic-recovery
# tests under the race detector, plus the compiled-vs-interpreted
# differential suites (kernel matcher, expression compiler, pure dataflow
# ops, the multiset's one-firing commit core against the two-phase
# TryRemoveAll/AddAll reference, the parallel Gamma engine's sub-solutions
# against the sequential engine — stable state, step count, every exit a
# replayable prefix — and the multiset's Partition/Absorb they rest on,
# the dataflow differentials (goldens, random programs, and random wide- and
# loop-shaped graphs on the firing core: the matching table's invariants
# walked after every commit, Ticks held to the level fold of the run's
# schedule, and the schedule replayed with every dependency level reversed),
# the token store itself (its direct slots and map held to a naive model on
# scripted and random deliveries, and its invariants walk against seeded
# defects),
# the dataflow plan cache (every Graph mutator between two runs against a
# fresh Clone, and one Graph run from 8 goroutines per engine spelling) and
# the run state a plan lends (early stops, parked operands and grown graphs
# against fresh runs),
# gammad's plan cache (cached answers against the uncached pipeline across
# tenants under concurrent submissions, error order, the bounds, replay hits),
# the service-side traced-run differential: per-tenant/per-engine registry
# rollups equal the global registry exactly under concurrent load, and the
# record/replay differentials: a parallel Gamma run's commit-order schedule
# and a level-reversed dataflow schedule must replay step for step to the
# byte-identical final state, and the provenance and work/span folds over
# them must be commit-order exact) — DESIGN.md §9,
# §10, §12, §14, §15 and §16 — and the multiset's storage tests: bucket churn
# (View readers enumerating while a writer takes labels through unbucketed,
# bucketed and drained, and buckets through empty, inline, spilled and back),
# the bucket hysteresis, the handle contract (stale and foreign handles fail
# their claim), CheckInvariants after every commit of the differential suites,
# the label-set narrowing cases, and the sequential engine's write session:
# concurrent readers make progress and see only states between two firings,
# every kind of exit releases it, and the sequence numbers drawn inside it
# replay. Last, the scaling gates in their count-only form (the race detector
# switches wall-clock halves off): candidates per step on Eq. 2 across layouts,
# sizes and matcher modes; steps, probes and candidates of the tournament and
# the sieve under both wake policies; steps and candidates per step on the
# home-list workloads, with the invariants checked after every commit. And
# ten seconds each of fuzzing the decoders of what a client sends: the dfir
# decoder every dataflow submission passes through (whatever it accepts must
# marshal to a canonical form, and run, recorded, under a firing budget and a
# deadline to a classified end whose schedule replays), the multiset literal
# parser of gammad's init field (whatever it accepts must be what one Add per element builds, and print
# and parse back; TestParseDifferential runs the same oracle on random literals
# above, and TestElistDoubleEndedChurn the list chunks under churn), the schedule decoder
# of /v1/replay (whatever it accepts must re-encode to a fixed point, and its
# firing DAG must fold: producers before consumers, work = steps, widths
# summing to work, span <= work, the DOT written) and the run-request
# and replay envelopes (whatever either accepts must encode and decode back
# equal, and the payload rules they share must give both the same verdict),
# and a Γ program with its init run recorded, under a step budget and a
# deadline, with the invariants checked after every commit (no panic, every
# error classified, and the schedule replays to the multiset the run left: the
# end-to-end check that a commit reuses only carves freed before it). The
# Recycled tests above hold the multiset's seal contract: whatever a surface
# handed out survives 1 000 commits that would reuse it.
stress:
	$(GO) test -race -count=2 -run 'Cancel|Panic|Fault|Deadline|Wedge|Partition|Absorb|Differential|KernelMatches|ApplyDelta|TestCommit|TestView|Rollup|Replay|Churn|Recycled|Invariant|Handle|Stale|Narrow|Session|Hysteresis|UnknownLabel|PlanCache|RunStateReuse|MatchTable' \
		./internal/gamma/ ./internal/dataflow/ ./internal/rt/ \
		./internal/expr/ ./internal/multiset/ ./internal/equiv/ \
		./internal/service/ ./internal/telemetry/ ./internal/replay/ .
	$(GO) test -race -timeout 5m -run 'TestLabelFreeScaling|TestWakePolicyScaling|TestAlg1ImageShape|TestHomeList' ./internal/gamma/
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshal$$' -fuzztime 10s ./internal/dfir/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/multiset/
	$(GO) test -run '^$$' -fuzz '^FuzzScheduleRoundTrip$$' -fuzztime 10s ./internal/replay/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRunRequest$$' -fuzztime 10s ./internal/schema/
	$(GO) test -run '^$$' -fuzz '^FuzzRunReplays$$' -fuzztime 10s ./internal/gamma/

check: vet fmt-check build race bench-check

# CI gate: like check but with explicit timeouts so a wedged run fails the
# build instead of hanging it, and with the size ceiling above. EXPERIMENTS.md's
# generated blocks must regenerate byte for byte twenty times over, on one
# core and on two, so no number there may depend on map order or scheduling.
# The parallel differential suites repeat under GOMAXPROCS=2 and GOMAXPROCS=8 so the
# sub-solutions run both time-sliced on few cores and genuinely concurrent,
# ten times over. The serving stack is
# gated inside go test -race ./...: cmd/gammad's TestGammadBinary boots the
# binary on a loopback port, runs Example 1 and stops it with SIGTERM; the
# client tests drive lifecycle, taxonomy over the wire, backpressure,
# trace/stats fetch and schedule replay; the service tests the health and
# Prometheus endpoints and the plan cache. The plan caches, the dataflow
# graph's and gammad's, repeat ten times under the race detector. Record/replay gates twice more: the byte-pinned Fig. 1/Fig. 2 golden
# replays, and the parallel-record → sequential-replay differentials under the
# race detector. Last come the gates the race detector switches off, once each
# on a plain build, every one in absolute units so an engine speed-up cannot
# fail them — and serially, with GAMMAFLOW_WALLCLOCK set where a test fits a
# wall-time exponent: tier-1 (go test ./...) runs packages side by side and
# asserts those tests' count forms only. The label-free matcher's wall-time
# exponent, and the home-list workloads' (a label of n tagged or untagged
# elements, n inserts of one tuple, a label oscillating across the bucket
# threshold); bytes per extra Gamma
# step on the converted Fig. 2 loop (never rising with the trip count, under
# 400 B, a whole run under 1 kB per step) and the counts of a step on an
# Algorithm 1 image (no wildcard reaction, pinned steps and probes, 0.2
# allocations per step) and the bytes of a tournament run on a parsed literal
# (no more than on the Add-built multiset);
# allocations and bytes per vertex firing on a re-run of the wide graph (flat
# in the width, under 1 allocation / 14 B, three allocations besides the
# Outputs map at every width, and short of the first run by the plan's
# tables); allocations per replayed dataflow step (never rising with the
# width); allocations per line and bytes per source byte of
# decoding the wide graph's dfir text (under 1.5 and 16, never rising with the
# width) and the one allocation of encoding it; allocations and bytes per
# element of parsing a multiset literal (under 0.25 and 320 B from 256
# elements on, never rising with the size); the matching table's, dataflow
# replay's and the divergence report's wall-time exponents (one vertex under n
# tags; schedules of 2 432 to 38 912 steps, the widest under 250 ms; dependency
# chains of 2^10 to 2^16 steps); bytes per service
# request untraced, trace-asked and traced; allocations per recorded dataflow
# firing (none: under 0.1, never rising with the width); nanoseconds per
# recorded firing, Γ and dataflow;
# and the count gates at full size — steps, probes and candidates under both
# wake policies up to n=10^5, and the parallel engine's steps per part,
# completion-pass share and allocation over the sequential run at GOMAXPROCS 2
# and 8. Wall times are bench/'s business: the pipeline compares
# its seven workloads against the parent commit.
check-ci: vet fmt-check build bench-check
	@total=$$($(MAKE) -s loc | awk '$$3 == "total" { print $$1 }'); \
	echo "make loc: $$total non-test lines (ceiling $(LOC_CEILING))"; \
	[ "$$total" -le $(LOC_CEILING) ]
	$(GO) test -race -timeout 5m ./...
	GOMAXPROCS=1 $(GO) test -timeout 2m -count=20 -run TestExperiments ./internal/paper/
	GOMAXPROCS=2 $(GO) test -timeout 2m -count=20 -run TestExperiments ./internal/paper/
	$(GO) test -race -timeout 2m -count=2 -run 'Cancel|Panic|Fault|Deadline' \
		./internal/gamma/ ./internal/dataflow/
	GOMAXPROCS=2 $(GO) test -race -timeout 5m -count=10 -run 'Partition|Differential' ./internal/gamma/ ./internal/multiset/ ./internal/replay/
	GOMAXPROCS=8 $(GO) test -race -timeout 5m -count=10 -run 'Partition|Differential' ./internal/gamma/ ./internal/multiset/ ./internal/replay/
	$(GO) test -race -timeout 2m -count=2 -run 'Golden|Replay' ./internal/replay/ ./internal/service/ ./cmd/gammarun/ ./cmd/dfrun/
	$(GO) test -race -timeout 2m -count=10 -run 'TestPlanCache|TestRunStateReuse' ./internal/dataflow/ ./internal/service/
	GAMMAFLOW_WALLCLOCK=1 $(GO) test -timeout 2m -count=1 -run 'TestLabelFreeScaling|TestWakePolicyScaling|TestHomeList' ./internal/gamma/
	GOMAXPROCS=2 $(GO) test -timeout 2m -count=1 -run 'TestPoolCommitShape' ./internal/gamma/
	GOMAXPROCS=8 $(GO) test -timeout 2m -count=1 -run 'TestPoolCommitShape' ./internal/gamma/
	$(GO) test -timeout 2m -count=1 -run 'TestLoopAllocScaling' .
	$(GO) test -timeout 2m -count=1 -run 'TestAlg1ImageShape|TestParsedInitRunAllocation|TestAlgorithm1RunArenaFlat' ./internal/gamma/
	GAMMAFLOW_WALLCLOCK=1 $(GO) test -timeout 2m -count=1 -run 'TestWideAllocShape|TestMatchTableScaling|TestCodecAllocShape' ./internal/dataflow/ ./internal/dfir/
	$(GO) test -timeout 2m -count=1 -run 'TestParseAllocShape' ./internal/multiset/
	$(GO) test -timeout 2m -count=1 -run 'TestDataflowRecorderAllocs' ./internal/replay/
	$(GO) test -timeout 2m -count=1 -run 'TestTraceAllocationCost' ./internal/service/
	GAMMAFLOW_WALLCLOCK=1 $(GO) test -timeout 2m -count=1 -run 'TestRecorderCostPerFiring|TestDataflowRecorderCostPerFiring|TestReplayDataflowScaling|TestReplayDataflowAllocScaling|TestReplayAncestorsScaling' ./internal/replay/
