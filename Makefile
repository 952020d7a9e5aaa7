GO ?= go

.PHONY: build test check bench bench-gate examples fuzz simtest soak fmt

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-1 gate: formatting cleanliness, vet, the full test suite under the
# race detector (which also exercises the parallel sweep runner), and a
# 1-iteration benchmark smoke so a broken benchmark harness fails here
# rather than in make bench. bench/ is its own module, which the root
# ./... patterns skip, so it is vetted and built separately: an API change
# that breaks it fails here rather than in a benchmark run.
check:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	cd bench && $(GO) vet ./... && $(GO) build -o /dev/null .
	$(GO) test -race ./...
	$(GO) test -run 'SteadyStateAllocs' -count=1 .
	$(GO) test -run '^$$' -bench 'BenchmarkEmulatorThroughput(Probed)?$$' -benchtime 1x -benchmem .
	$(MAKE) examples

# Build every example and smoke-run the trace-replay and churn demos (short
# horizons via their -dur flags), so the examples stay compilable and
# runnable under tier-1.
examples:
	$(GO) build ./examples/...
	$(GO) run ./examples/cellular_trace -dur 12s
	$(GO) run ./examples/churn -dur 4s

# Full benchmark pass; the output is echoed and also summarized into
# BENCH_results.json (benchmark name → ns/op, events/op, allocs/op, …).
bench:
	$(GO) test -run '^$$' -bench . -benchmem . | $(GO) run ./cmd/benchjson -o BENCH_results.json

# Bench-regression gate: re-run the suite and fail if any benchmark's ns/op
# or allocs/op grew — or a custom work metric such as events/op shrank —
# more than GATE_PCT% over the committed BENCH_results.json (refresh the
# baseline with `make bench` when a slowdown is intentional). The gate also
# refuses to compare runs whose GOMAXPROCS differs from the baseline's.
GATE_PCT ?= 10
bench-gate:
	$(GO) test -run '^$$' -bench . -benchmem . | \
		$(GO) run ./cmd/benchjson -o /tmp/bench_gate.json -gate BENCH_results.json -gate-pct $(GATE_PCT)

# Deep simulation-testing sweep: SIMTEST_N randomized scenarios under the
# full invariant oracle (see internal/simtest and DESIGN.md "Correctness
# architecture"). The in-test default is a few hundred scenarios; this
# target raises the budget for a pre-merge soak. Failing scenarios shrink
# themselves and print a one-line SIMTEST_SCENARIO repro command.
SIMTEST_N ?= 2000
simtest:
	SIMTEST_N=$(SIMTEST_N) $(GO) test ./internal/simtest -count=1 -v -run TestRandomScenarios
	$(GO) test -race ./internal/simtest -count=1

# Overload-survival soak: SIMTEST_N generated churn scenarios — open-loop
# arrivals, admission shedding, retry backoff, session teardown — audited
# under the full invariant oracle (session ledger, server budgets, pool-leak
# drain checks) with the race detector on, plus the graceful-degradation
# knee oracle. Failing scenarios shrink themselves and print a one-line
# SIMTEST_SCENARIO repro command.
soak:
	SIMTEST_N=$(SIMTEST_N) $(GO) test -race ./internal/simtest -count=1 -v -run 'TestChurnSoak'
	$(GO) test -race ./internal/simtest -count=1 -v -run 'TestChurnGracefulDegradation'

# Short fuzz pass over every native fuzz target.
fuzz:
	$(GO) test ./internal/sim -fuzz FuzzTimingWheel -fuzztime 10s
	$(GO) test ./internal/fairness -fuzz FuzzParse -fuzztime 10s
	$(GO) test ./internal/transport -fuzz FuzzRangeSet -fuzztime 10s
	$(GO) test ./internal/transport -fuzz FuzzFaultTimeline -fuzztime 10s
	$(GO) test ./internal/netem -fuzz FuzzParseBWTrace -fuzztime 10s

fmt:
	gofmt -l -w .
