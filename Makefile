GO ?= go

.PHONY: all build test race race-par vet bench-smoke load-smoke whatif-smoke tournament-smoke fuzz fuzz-corpus verify bench bench-compare bench-fair bench-ingest profile run-daemon clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race exercises the concurrent paths (the what-if planner's parallel
# rollouts, the engines driving them, the worker pool, and the daemon's
# wall-clock loop and ingest lanes) under the race detector.
race:
	$(GO) test -race ./internal/core ./internal/sim ./internal/parallel ./internal/server

# race-par is the multi-core leg of the race gate: with GOMAXPROCS
# pinned to 4 the what-if planner's rollouts fan out across real
# worker goroutines (parallel.ForEach). It replays the three-way
# differential suite — which also exercises the incremental fairness
# oracle's replay-echo worlds — under the race detector.
race-par:
	GOMAXPROCS=4 $(GO) test -race -run 'TestDifferentialThreeWay' ./internal/sim

vet:
	$(GO) vet ./...

# A one-iteration pass over the scheduling benchmarks: catches bench
# bit-rot without the minutes-long measured run. The ingest-decode and
# priority-order families live in internal/server and internal/core, so
# those packages are swept too.
bench-smoke:
	$(GO) test -run '^$$' -bench 'ScheduleIteration|PlanEarliestStart|PlanCommit|SimEndToEnd|SimAtScale|SimWhatIf' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'IngestDecode' -benchtime 1x ./internal/server
	$(GO) test -run '^$$' -bench 'Prioritize' -benchtime 1x ./internal/core

# load-smoke boots amjsd on an ephemeral port and batch-submits 100k
# jobs over real TCP loopback, failing below a conservative throughput
# floor (see scripts/load_smoke.sh for the MIN_RATE/JOBS/BATCH knobs).
load-smoke:
	./scripts/load_smoke.sh

# whatif-smoke boots amjsd with the simulation-in-the-loop tuner on an
# ephemeral port, batch-submits a contended trace, drains, and asserts
# via /v1/tuner that the planner committed at least one (BF, W) retune
# (see scripts/whatif_smoke.sh).
whatif-smoke:
	./scripts/whatif_smoke.sh

# tournament-smoke plays a mini cross-trace policy league (8 policies x
# {synthetic, SWF} traces) end to end through amjs-tournament, asserting
# the artifact schema, per-trace rank sanity, and byte-identical output
# at workers=1 and workers=8 (see scripts/tournament_smoke.sh).
tournament-smoke:
	./scripts/tournament_smoke.sh

# fuzz-corpus asserts the committed seed corpora exist: a fuzz target
# whose corpus directory vanished would silently fuzz from nothing.
fuzz-corpus:
	@test -n "$$(ls internal/workload/testdata/fuzz/FuzzSWF 2>/dev/null)" \
		|| { echo "missing FuzzSWF seed corpus"; exit 1; }
	@test -n "$$(ls internal/sim/testdata/fuzz/FuzzSchedule 2>/dev/null)" \
		|| { echo "missing FuzzSchedule seed corpus"; exit 1; }
	@test -n "$$(ls internal/cli/testdata/fuzz/FuzzPolicySpec 2>/dev/null)" \
		|| { echo "missing FuzzPolicySpec seed corpus"; exit 1; }

# fuzz runs each native fuzz target for FUZZTIME (default 10s) on top
# of the committed seed corpora: the SWF parser contract, the Paranoid
# engine with batch/stream cross-checking, and the policy/policy-list
# spec parsers.
FUZZTIME ?= 10s
fuzz: fuzz-corpus
	$(GO) test -run '^$$' -fuzz '^FuzzSWF$$' -fuzztime $(FUZZTIME) ./internal/workload
	$(GO) test -run '^$$' -fuzz '^FuzzSchedule$$' -fuzztime $(FUZZTIME) ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzPolicySpec$$' -fuzztime $(FUZZTIME) ./internal/cli

# verify is the pre-merge gate: vet, build, the full suite (which
# replays the fuzz seed corpora), the concurrent packages under the
# race detector, the seed-corpus presence check, and a benchmark smoke
# test. The benchmark comparison runs too, but non-fatally: measured
# numbers vary with the machine, so a regression there warns without
# blocking the gate.
verify: vet build test race fuzz-corpus bench-smoke
	-$(MAKE) bench-compare

# bench runs the measured scheduling benchmarks (window-search micro
# plus end-to-end simulation) and records them as machine-readable JSON
# (see scripts/bench.sh).
bench:
	./scripts/bench.sh

# bench-compare diffs the current benchmark artifact against the
# previous PR's and fails if anything shared regressed by more than
# 20% ns/op (see cmd/benchcompare).
bench-compare:
	$(GO) run ./cmd/benchcompare BENCH_6.json BENCH_7.json

# bench-fair re-measures just the end-to-end fairness family and
# rewrites BENCH_7.json with the fair-on/fair-off ratio per engine mode
# (the "fair_ratios" section): the quick loop for iterating on the
# incremental oracle without the minutes-long full sweep. Note it leaves
# the artifact without the micro and at-scale families; run `make bench`
# for the committable artifact.
bench-fair:
	./scripts/bench.sh BENCH_7.json 'SimEndToEnd'

# bench-ingest measures the daemon's HTTP ingest saturation curve over
# TCP loopback and writes BENCH_5.json (see scripts/bench_ingest.sh).
bench-ingest:
	./scripts/bench_ingest.sh BENCH_5.json

# profile captures CPU and heap profiles of the at-scale simulation
# for pprof: `go tool pprof cpu.prof` / `go tool pprof mem.prof`.
profile:
	$(GO) test -run '^$$' -bench 'SimAtScale/search=serial' -benchtime 5x \
		-cpuprofile cpu.prof -memprofile mem.prof .

# run-daemon boots a local scheduling daemon at 60x wall speed on the
# 512-node synthetic machine; see README "Running the daemon".
run-daemon:
	$(GO) run ./cmd/amjsd -addr 127.0.0.1:8080 -machine flat:512 \
		-policy adaptive:2d:1000 -speedup 60

clean:
	rm -f amjs.test cpu.prof mem.prof
