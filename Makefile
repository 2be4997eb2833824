# Development entry points. Everything is stdlib Go; no external tools.

GO ?= go

.PHONY: all build test test-race test-race-core test-short cover bench \
        bench-test bench-check bench-obs bench-msgnet bench-runtime bench-batch \
        bench-soak bench-smoke experiments \
        experiments-quick modelcheck modelcheck-n5 modelcheck-n6 examples fmt vet lint \
        fuzz-short soak-short digests clean

all: build vet lint test bench-test test-race-core soak-short

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Race-check the concurrency-heavy packages (the parallel ID-space engine,
# the sweep driver, the observer fed by the live engine's worker loops,
# the discrete-event network, the sharded live runtime, the soak
# harness whose concurrent runs merge into one shared observer, and the
# TCP ring whose reader and announcer goroutines share each node's mutex)
# without paying for the whole suite under -race.
test-race-core:
	$(GO) test -race ./internal/check ./internal/parsweep ./internal/obs \
	  ./internal/msgnet ./internal/runtime ./internal/crosscheck ./internal/netring

test-short:
	$(GO) test -short ./...

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench . -benchmem ./...

# The end-to-end benchmark (bench/) is a nested module, so go test ./...
# at the root never reaches it: vet and test it from its own directory.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Track the model checker's perf trajectory: run the checker + sweep
# benchmarks and record (name, ns/op, allocs/op) in BENCH_check.json.
bench-check:
	$(GO) test -run '^$$' -bench 'ModelCheck|ParallelSweep' -benchmem . \
	  | $(GO) run ./cmd/benchjson -o BENCH_check.json

# Record the instrumentation layer's no-op-sink overhead on the hot paths
# (state-reading steps, discrete events) in BENCH_obs.json; the "nop"
# variants must stay within 5% of their "bare" twins.
bench-obs:
	$(GO) test -run '^$$' -bench 'ObsOverhead' -benchmem . \
	  | $(GO) run ./cmd/benchjson -o BENCH_obs.json

# Record the zero-alloc event engine under an n-node lossy/duplicating
# storm (n = 8, 32, 128) in BENCH_msgnet.json. The bar is 0 allocs/op at
# every n; bench-smoke compares ns/op against this record.
bench-msgnet:
	$(GO) test -run '^$$' -bench 'MsgnetStorm' -benchmem -count 3 . \
	  | $(GO) run ./cmd/benchjson -o BENCH_msgnet.json

# Record the sharded event-loop runtime: virtual-time engine throughput at
# n=10k and n=100k on one worker and on one per CPU, plus a Refresh <
# Delay row, and the event-queue layer alone (one engine-100k-shaped
# epoch), in BENCH_runtime.json. The acceptance bar is >= 100k nodes
# sustained.
bench-runtime:
	{ $(GO) test -run '^$$' -bench 'RuntimeEngine' -benchmem -count 3 . ; \
	  $(GO) test -run '^$$' -bench 'RuntimeQueue' -benchmem -count 3 \
	    ./internal/runtime; } \
	  | $(GO) run ./cmd/benchjson -o BENCH_runtime.json

# Record the bit-sliced batch simulator: 64-lane SSRmin convergence
# sweeps (the fig12 workload) against the scalar statemodel oracle, in
# BENCH_batch.json with seeds/s and steps/s custom metrics, plus one
# micro-benchmark per bitslice layer (RNG, transpose, seeding, step
# kernel, legitimacy test). The acceptance bar is >= 20x the scalar
# seeds/s at every ring size.
BITSLICE_LAYERS = RNG64|Transpose64|SeedLanes|Step|LegitMask

bench-batch:
	$(GO) test -run '^$$' -bench 'BitsliceBatch|$(BITSLICE_LAYERS)' \
	  -benchmem -count 3 ./internal/bitslice \
	  | $(GO) run ./cmd/benchjson -o BENCH_batch.json

# Record the differential soak's tiers: one soak-mix storm scenario
# (n=8, 40 s horizon) through each tier alone — state, msgnet, live — and
# the msgnet tier's LinkMonitor alone, in ns per tap of a recorded tap
# stream, in BENCH_soak.json.
bench-soak:
	$(GO) test -run '^$$' -bench 'SoakScenario|LinkMonitorTap' -benchmem -count 3 \
	  ./internal/crosscheck \
	  | $(GO) run ./cmd/benchjson -o BENCH_soak.json

# CI guard against silent perf rot: re-run the tracked benchmarks
# briefly (-benchtime 20x keeps the whole sweep under a second) and
# compare ns/op against the committed records (the bitslice layer
# micro-benchmarks run for 20ms each instead: a handful of sub-microsecond
# iterations would time the timer; so does the LinkMonitor tap
# benchmark). Shared-runner noise is
# huge at this length, so the threshold is deliberately generous — this
# catches order-of-magnitude rot (a debug print, an accidental O(n^2)),
# not percent drift.
bench-smoke:
	$(GO) test -run '^$$' -bench 'MsgnetStorm' -benchmem -benchtime 20x . \
	  | $(GO) run ./cmd/benchjson -o /tmp/bench_msgnet_smoke.json
	$(GO) run ./cmd/benchjson -compare -max-regress 400 \
	  BENCH_msgnet.json /tmp/bench_msgnet_smoke.json
	{ $(GO) test -run '^$$' -bench 'RuntimeEngine' -benchmem -benchtime 3x . ; \
	  $(GO) test -run '^$$' -bench 'RuntimeQueue' -benchmem -benchtime 3x \
	    ./internal/runtime; } \
	  | $(GO) run ./cmd/benchjson -o /tmp/bench_runtime_smoke.json
	$(GO) run ./cmd/benchjson -compare -max-regress 400 \
	  BENCH_runtime.json /tmp/bench_runtime_smoke.json
	{ $(GO) test -run '^$$' -bench 'BitsliceBatch' -benchmem -benchtime 5x \
	    ./internal/bitslice; \
	  $(GO) test -run '^$$' -bench '$(BITSLICE_LAYERS)' -benchmem \
	    -benchtime 20ms ./internal/bitslice; } \
	  | $(GO) run ./cmd/benchjson -o /tmp/bench_batch_smoke.json
	$(GO) run ./cmd/benchjson -compare -max-regress 400 \
	  BENCH_batch.json /tmp/bench_batch_smoke.json
	{ $(GO) test -run '^$$' -bench 'SoakScenario' -benchmem -benchtime 3x \
	    ./internal/crosscheck; \
	  $(GO) test -run '^$$' -bench 'LinkMonitorTap' -benchmem -benchtime 20ms \
	    ./internal/crosscheck; } \
	  | $(GO) run ./cmd/benchjson -o /tmp/bench_soak_smoke.json
	$(GO) run ./cmd/benchjson -compare -max-regress 400 \
	  BENCH_soak.json /tmp/bench_soak_smoke.json

# Regenerate every paper artifact + extension ablations (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/experiments

experiments-quick:
	$(GO) run ./cmd/experiments -quick

# Exhaustive verification of the paper's lemmas on the compiled parallel
# engine (n=3 in ms, n=4 in ~0.3s). Exits non-zero on any lemma violation.
modelcheck:
	$(GO) run ./cmd/modelcheck -n 3
	$(GO) run ./cmd/modelcheck -n 4

# The big instance: 24^5 ≈ 7.96M configurations, explored as 1.33M
# digit-shift representatives: ~5 MiB bookkeeping (a 4-byte distance memo
# per representative), about a second of CPU (-workers sets the worker
# count).
modelcheck-n5:
	$(GO) run ./cmd/modelcheck -n 5 -k 6

# E8's fourth exact point, kept out of `all`: 28^6 ≈ 482M configurations,
# 68.8M representatives, ~280 MiB of bookkeeping and about a minute on two
# cores. SSRMIN_EXHAUSTIVE_N6=1 go test -run TestSSRminN6K7Engine
# ./internal/check pins its values.
modelcheck-n6:
	$(GO) run ./cmd/modelcheck -n 6 -k 7 -max-configs 500000000

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/faultdemo -rounds 2
	$(GO) run ./examples/handover -ms 300
	$(GO) run ./examples/cameranet -seconds 2
	$(GO) run ./examples/lkcs -steps 30
	$(GO) run ./examples/tcpring -seconds 2

fmt:
	gofmt -l -w .

vet:
	$(GO) vet ./...

# Domain analyzers (internal/lint): locality of guards/commands,
# determinism of golden packages, observer nil-guard discipline, the step
# shape of the execution tiers, and escape-analysis allocation gates on
# the hot paths. Exits non-zero on any finding; see docs/LINT.md.
lint:
	$(GO) run ./cmd/ssrmin-lint ./...

# Bounded differential soak (cmd/ssrmin-soak over internal/crosscheck):
# seeded scenario sweeps through the state-reading, message-passing, and
# live execution tiers with the paper invariants — census, convergence
# bound, one-message-per-direction link rule, token separation — checked
# continuously. Exits non-zero (and writes a shrunk repro to
# testdata/repros/) on any violation. The deterministic tiers get the
# adversarial sweeps; the live tier gets a short sweep on one worker; the
# final invocation is the mutation search, a fixed
# budget of hill-climb runs over link knobs, fault storms, and
# churn/splice scripts — the dynamics the static sweeps never exercise.
soak-short:
	$(GO) run ./cmd/ssrmin-soak -seeds 12 -name soak-dup -n 4 \
	  -dup 0.3 -jitter 0.002 -engines state,msgnet -horizon 15
	$(GO) run ./cmd/ssrmin-soak -seeds 8 -name soak-storm -n 6 -random \
	  -incoherent -storm -loss 0.1 -dup 0.2 -corrupt 0.05 \
	  -engines state,msgnet -horizon 40 -settle 15
	$(GO) run ./cmd/ssrmin-soak -seeds 3 -name soak-live -engines live \
	  -horizon 5 -workers 1
	$(GO) run ./cmd/ssrmin-soak -name soak-search -search -churn \
	  -search-restarts 3 -search-budget 25 -seed 1 -n 5 -k 12 \
	  -engines state,msgnet,live -horizon 16 -settle 7

# Regenerate every committed digest under testdata/digests: the crosscheck
# storm/churn reports, the quick-mode experiment outputs, the model
# checker's reports, the msgnet tap streams and the sharded runtime's
# sweep, dispatch-order and churn runs.
# A digest pins behaviour, so one that changes is a behaviour change:
# explain it in CHANGES.md next to the regenerated file.
digests:
	$(GO) test -count 1 -run TestReportDigestPinned ./internal/crosscheck -update
	$(GO) test -count 1 -run TestQuickExperimentsDigest ./cmd/experiments -update
	$(GO) test -count 1 -run TestCheckerReportsDigest ./internal/check -update
	$(GO) test -count 1 -run TestEnginesProduceIdenticalTapStreams ./internal/msgnet -update
	$(GO) test -count 1 -run 'TestEngine(|DispatchOrder|Churn)MatchesReference' \
	  ./internal/runtime -update

# A quick pass over every native fuzz target (corpus + a few seconds of
# mutation each); the committed seed corpora always run as plain tests.
fuzz-short:
	$(GO) test -run '^$$' -fuzz FuzzParseDaemon -fuzztime 5s ./internal/cliconf
	$(GO) test -run '^$$' -fuzz FuzzConfigFlags -fuzztime 5s ./internal/cliconf
	$(GO) test -run '^$$' -fuzz FuzzJSONLEmit -fuzztime 5s ./internal/obs
	$(GO) test -run '^$$' -fuzz FuzzWaiverParse -fuzztime 5s ./internal/lint
	$(GO) test -run '^$$' -fuzz FuzzBitsliceStep -fuzztime 5s ./internal/bitslice
	$(GO) test -run '^$$' -fuzz FuzzLoadRepros -fuzztime 5s ./internal/crosscheck
	$(GO) test -run '^$$' -fuzz FuzzScenarioLoad -fuzztime 5s ./internal/scenario
	$(GO) test -run '^$$' -fuzz FuzzArenaInvariants -fuzztime 5s ./internal/msgnet
	$(GO) test -run '^$$' -fuzz FuzzTopology -fuzztime 5s ./internal/topo
	$(GO) test -run '^$$' -fuzz FuzzEnabledRule -fuzztime 5s ./internal/core

clean:
	$(GO) clean ./...
