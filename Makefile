# Development targets. `make check` is the PR gate: it checks formatting,
# vets, builds, statically verifies every kernel program (uvelint), runs the
# full test suite under the race detector (which exercises the parallel
# experiment runner), smoke-runs the Fig 8 benchmark once, and checks the
# execution-tier, trace, fault-campaign, watchdog, wire, model, prove,
# serve and examples smokes, and gates wall-clock against the committed
# BENCH_simwall.json baseline. scripts/check.sh holds each step's commands
# and their order; `make <step>` runs one step.

GO ?= go

STEPS = fmt vet build lint race fuzz-smoke bench-smoke tier-smoke trace-smoke fault-smoke watchdog-smoke wire-smoke model-smoke prove-smoke serve-smoke examples-smoke perf-smoke

.PHONY: check test perf-baseline bench experiments $(STEPS)

check:
	GO=$(GO) ./scripts/check.sh

$(STEPS):
	GO=$(GO) ./scripts/check.sh $@

test:
	$(GO) test ./...

# Regenerate BENCH_simwall.json on this host, including the timed
# detailed-vs-functional uvebench comparisons.
perf-baseline:
	./scripts/perfsmoke.sh -update

# Full custom-metric benchmark sweep (§VI figures as benchmark units).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# Paper-scale regeneration of every figure and table.
experiments:
	$(GO) run ./cmd/uvebench -exp all
