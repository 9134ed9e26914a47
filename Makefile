GO ?= go

.PHONY: all build test vet race check bench bench-smoke bench-compare stream-bench fmt-compat fuzz-smoke chaos chaos-race baseline metrics-smoke perfbench-test

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Race-detector pass over the library packages (the parallel harness and
# the interned decode paths run under concurrency).
race:
	$(GO) test -race ./internal/...

check: vet build test race metrics-smoke

# /metrics endpoint smoke: a live short session served over real HTTP and
# scraped concurrently with the drive loop, asserting the Prometheus
# exposition parses and carries the per-topic latency histograms and ring
# accounting. (A test rather than a curl script: the simulator outpaces
# the wall clock, so the binary exits before a shell could scrape it.)
metrics-smoke:
	$(GO) test -run TestMetricsEndpointSmoke -count=1 ./internal/harness

# The session benchmark's own tests, offline: the percentile rule
# (Python) and tracedrv's span accounting, query generator and
# brute-force query filter (Go). perfbench is a nested module, so the
# tier-1 ./... never reaches it.
perfbench-test:
	python3 -m unittest discover perfbench
	cd perfbench && $(GO) test ./...

# Full benchmark suite with allocation reporting.
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# One-iteration structural smoke pass (used by CI).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x .

# Streaming-pipeline microbenchmarks: stream vs batch drain, the
# incremental model builder, and the trace-store read paths, with
# allocation reporting.
stream-bench:
	$(GO) test -run '^$$' -bench 'Bundle_|Alg1_|Trace_Merge|Store' -benchmem .

# Parallel storage pipeline at 1 and 4 scheduler threads: the speedup
# table in docs/PERFORMANCE.md comes from this target on a multi-core
# host (a single-core runner reports the coordination-overhead floor
# at both settings, not a speedup).
bench-parallel:
	$(GO) test -run '^$$' -bench 'StoreStreamSessionParallel|StoreQuerySessionParallel|SegmentWriteV2Async|StoreStreamSession$$|StoreQuerySession$$|SegmentWriteV2$$' -benchmem -cpu 1,4 .

# Run the suite and diff against BENCH_baseline.json: fails on >15% ns/op
# regression of the named hot-path benchmarks (scripts/bench_compare.py).
# -count=5 with min-of-N selection in bench_to_json keeps scheduler noise
# on a loaded machine from tripping the gate: five samples spread over
# the suite's runtime ride out contention bursts that min-of-3 caught.
bench-compare:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime=200ms -count=5 . | python3 scripts/bench_to_json.py > /tmp/bench_new.json
	python3 scripts/bench_compare.py BENCH_baseline.json /tmp/bench_new.json

# Cross-version .rtrc compatibility suite (used by CI): v1 <-> v2 decoded
# equivalence at codec and store level, the v2 crash-recovery truncation
# sweep, v2 damage classification, indexed-query correctness against the
# sequential reference, the lazily admitted session reads over a mixed
# v1 / v2 / footer-less store, and the v1/v2 fuzz equivalence seeds.
fmt-compat:
	$(GO) test -run 'TestFormatCompat|TestSegmentWriterFormatKnob|TestSegmentCrashRecovery|TestSalvage|TestFsck|TestQuerySession|TestSessionReads|FuzzV1V2Equivalence|FuzzV2Cursor' -count=1 ./internal/trace

# Short coverage-guided fuzz passes (used by CI): the binary trace codec
# (batch reader and streaming segment cursor), salvage over damaged
# segments, and the tier-0 vs tier-1 decode equivalence of random
# programs.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzReadBinary -fuzztime 10s ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzFileCursor -fuzztime 10s ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzSalvage -fuzztime 10s ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzV2Cursor -fuzztime 10s ./internal/trace
	$(GO) test -run '^$$' -fuzz 'FuzzV1V2Equivalence$$' -fuzztime 10s ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzTier1Equivalence -fuzztime 10s ./internal/ebpf

# Fault-injection chaos run: the full drain -> store -> synthesis
# pipeline under a seeded fault plan (transport drops, forced ring
# overruns, scripted disk failures) with exact loss accounting and a
# salvage pass over a deterministically damaged store.
chaos:
	$(GO) run ./cmd/experiments -run chaos -runs 1 -duration 5s

# The same chaos run under the race detector (via its harness test).
chaos-race:
	$(GO) test -race -run TestChaosExperiment -count=1 ./internal/harness

# Regenerate the BENCH_baseline.json snapshot future perf PRs compare
# against.
baseline:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime=200ms -count=5 . | python3 scripts/bench_to_json.py > BENCH_baseline.json
	@echo wrote BENCH_baseline.json
