# Development targets. `make check` is the PR gate: it checks formatting,
# vets, builds, statically verifies every kernel program (uvelint), runs the
# full test suite under the race detector (which exercises the parallel
# experiment runner), smoke-runs the Fig 8 benchmark once, and checks the
# execution-tier, trace, fault-campaign, watchdog and examples smokes, and gates
# wall-clock against the committed BENCH_simwall.json baseline.

GO ?= go

.PHONY: check fmt vet lint build test race fuzz-smoke bench-smoke tier-smoke trace-smoke fault-smoke watchdog-smoke wire-smoke model-smoke prove-smoke serve-smoke examples-smoke perf-smoke perf-baseline bench experiments

check: fmt vet build lint race fuzz-smoke bench-smoke tier-smoke trace-smoke fault-smoke watchdog-smoke wire-smoke model-smoke prove-smoke serve-smoke examples-smoke perf-smoke

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on: $$out"; exit 1; fi

# go vet plus the repo's own determinism vet (cmd/uvevet): no wall-clock
# reads, no global math/rand draws, no map iteration order leaking into
# rendered reports in the simulation packages.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/uvevet

# Static stream/program verification of all 19 kernels × 3 ISA variants.
lint:
	$(GO) run ./cmd/uvelint -all

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/bench ./internal/sim
	$(GO) test -race ./...

# Short native-fuzzing smoke over the descriptor iterator and the symbolic
# footprint abstraction (one -fuzz target per invocation).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzIterator$$' -fuzztime 5s ./internal/descriptor
	$(GO) test -run '^$$' -fuzz '^FuzzFootprint$$' -fuzztime 5s ./internal/descriptor
	$(GO) test -run '^$$' -fuzz '^FuzzClosedFormWalk$$' -fuzztime 5s ./internal/cost
	$(GO) test -run '^$$' -fuzz '^FuzzAbsintSoundness$$' -fuzztime 5s ./internal/absint
	$(GO) test -run '^$$' -fuzz '^FuzzWireDecode$$' -fuzztime 5s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzWireRoundTrip$$' -fuzztime 5s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeEntry$$' -fuzztime 5s ./internal/store

# One Fig 8 regeneration through the benchmark harness — cheap proof that
# the full kernel × machine matrix still assembles, runs and validates.
bench-smoke:
	$(GO) test -run '^$$' -bench '^BenchmarkFig8$$' -benchtime 1x .

# Execution-tier smoke: the functional/cycle differential oracle and the
# event-skip bit-equivalence suite race-detected (the functional sweep
# fans out over the worker pool), a short differential fuzz pass, and one
# race-detected end-to-end functional sweep through the uvebench CLI.
tier-smoke:
	$(GO) test -race -run 'TestFunctionalDifferential|TestEventSkipEquivalence' ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzTierDifferential$$' -fuzztime 5s ./internal/sim
	$(GO) run -race ./cmd/uvebench -fidelity functional -scale 64 > /dev/null

# Wall-clock trajectory gate: re-measures the BenchmarkSimWall cells and
# fails on >2x regression vs the committed BENCH_simwall.json. Absolute
# numbers are host-dependent (the baseline names its host) and shared CI
# machines are noisy, hence the deliberately loose 2x threshold; after an
# intentional perf change, regenerate with `make perf-baseline`.
perf-smoke:
	./scripts/perfsmoke.sh

# Regenerate BENCH_simwall.json on this host, including the timed
# detailed-vs-functional uvebench comparisons.
perf-baseline:
	./scripts/perfsmoke.sh -update

# Trace smoke: a traced saxpy run must emit a valid Chrome trace file, the
# tracing machinery (compiled in but disabled) must leave uvesim's stdout
# byte-identical to the traced run's, and uvebench's figure output must be
# byte-identical between sequential and parallel execution.
trace-smoke:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/uvesim -kernel C -size 512 > "$$dir/plain.txt" && \
	$(GO) run ./cmd/uvesim -kernel C -size 512 -trace "$$dir/saxpy.json" > "$$dir/traced.txt" 2> /dev/null && \
	$(GO) run ./scripts/jsonvalid "$$dir/saxpy.json" && \
	cmp "$$dir/plain.txt" "$$dir/traced.txt" && \
	$(GO) run ./cmd/uvebench -exp fig8 -scale 256 -j 1 > "$$dir/fig8-seq.txt" && \
	$(GO) run ./cmd/uvebench -exp fig8 -scale 256 > "$$dir/fig8-par.txt" && \
	cmp "$$dir/fig8-seq.txt" "$$dir/fig8-par.txt"

# Fault smoke: seeded injection is deterministic — the same seed must give
# byte-identical output for one faulted run and for the full campaign table
# — and the campaign paths run race-detected.
fault-smoke:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/uvesim -kernel C -size 512 -faults seed=7 > "$$dir/fault1.txt" && \
	$(GO) run ./cmd/uvesim -kernel C -size 512 -faults seed=7 > "$$dir/fault2.txt" && \
	cmp "$$dir/fault1.txt" "$$dir/fault2.txt" && \
	$(GO) run ./cmd/uvebench -exp faults -scale 512 > "$$dir/campaign1.txt" && \
	$(GO) run ./cmd/uvebench -exp faults -scale 512 > "$$dir/campaign2.txt" && \
	cmp "$$dir/campaign1.txt" "$$dir/campaign2.txt"
	$(GO) test -race -run Fault ./internal/fault ./internal/sim ./internal/bench

# Watchdog smoke: an intentionally starved run (every line fetch NACKed
# into long back-offs, tight no-commit bound) must exit non-zero with the
# structured diagnostic — never hang.
watchdog-smoke:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	if $(GO) run ./cmd/uvesim -kernel C -size 65536 \
	    -faults seed=7,nack=900,nack-backoff=200 -watchdog 150 > "$$dir/wd.txt" 2>&1; then \
	    echo "watchdog smoke: starved run exited zero"; exit 1; \
	fi; \
	grep -q watchdog "$$dir/wd.txt" && grep -q "stream table" "$$dir/wd.txt"

# Wire-format smoke: the canonical encoder must be bit-reproducible (two
# corpus encodes diff clean), every blob must disassemble, -verify must
# certify canonicality and lint-verdict identity for the whole corpus, and
# the README walkthrough (encode saxpy -> disassemble -> statically verify)
# must work end to end.
wire-smoke:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/uveasm" ./cmd/uveasm && \
	"$$dir/uveasm" -o "$$dir/wire-a" > /dev/null && \
	"$$dir/uveasm" -o "$$dir/wire-b" > /dev/null && \
	diff -r "$$dir/wire-a" "$$dir/wire-b" && \
	"$$dir/uveasm" -d "$$dir/wire-a"/*.uve > /dev/null && \
	"$$dir/uveasm" -verify "$$dir/wire-a"/*.uve > /dev/null && \
	"$$dir/uveasm" -kernel C -variant uve -o "$$dir/saxpy.uve" > /dev/null && \
	"$$dir/uveasm" -d "$$dir/saxpy.uve" | grep -q saxpy && \
	"$$dir/uveasm" -lint "$$dir/saxpy.uve" | grep -q "certificate: safe=true"

# Cost-model validation sweep: the static model's exact traffic predictions
# must match the simulator's committed counters and every cycle lower bound
# must hold across the full kernel × variant matrix (the degeneracy gate
# fails the run on any violation); the -json lint+cost report must be valid
# machine-readable JSON.
model-smoke:
	$(GO) run ./cmd/uvebench -exp model -scale 256 > /dev/null
	$(GO) run ./cmd/uvelint -all -cost -json | $(GO) run ./scripts/jsonvalid

# Prove smoke: the abstract-interpretation prover must be deterministic
# (two -deps sweeps render byte-identically, certificates included) and
# effective (the prover bounds HACCmk's scalar-store addresses, which
# certifies it collision-free; a certified kernel elides the sanitizer
# under -sanitize=auto). The certified-elision wall clock is recorded by the
# sanitize-on/sanitize-auto BenchmarkSimWall cells that perf-smoke gates
# against BENCH_simwall.json.
prove-smoke:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/uvelint -all -deps > "$$dir/prove1.txt" && \
	$(GO) run ./cmd/uvelint -all -deps > "$$dir/prove2.txt" && \
	cmp "$$dir/prove1.txt" "$$dir/prove2.txt" && \
	grep -q "proven outside the stream footprint by value-range analysis" "$$dir/prove1.txt" && \
	$(GO) run ./cmd/uvelint -kernel L -variant uve -deps | grep -q "collision-free=true" && \
	$(GO) run ./cmd/uvesim -kernel L -size 256 -fidelity functional -sanitize=auto | grep -q "sanitizer:         elided"

# Serve smoke: the uveserve daemon end to end over curl — two concurrent
# clients receive byte-identical reports for the same kernel × variant ×
# size matrix, SIGTERM drains cleanly with a job in flight, and a restart
# over the same store directory serves everything from disk (hit rate > 0).
serve-smoke:
	./scripts/servesmoke.sh

# Examples smoke: every program under examples/ — the public uve API's
# end-to-end users besides the uve_*_test.go suites — builds, exits zero
# and prints byte-identical output on two runs.
examples-smoke:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/bin/" ./examples/... && \
	for ex in "$$dir"/bin/*; do \
	    "$$ex" > "$$dir/out1" && "$$ex" > "$$dir/out2" && cmp "$$dir/out1" "$$dir/out2" || exit 1; \
	done

# Full custom-metric benchmark sweep (§VI figures as benchmark units).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# Paper-scale regeneration of every figure and table.
experiments:
	$(GO) run ./cmd/uvebench -exp all
