#!/bin/sh
# The merge gate, one function per step. `./scripts/check.sh` runs every step
# in order; `./scripts/check.sh <step>...` runs the named steps, which is
# what `make check` and `make <step>` do.
set -eux
cd "$(dirname "$0")/.."
GO=${GO:-go}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

steps="fmt vet build lint race fuzz-smoke bench-smoke tier-smoke trace-smoke fault-smoke watchdog-smoke wire-smoke model-smoke prove-smoke serve-smoke examples-smoke perf-smoke"

step_fmt() {
    fmt_diff=$(gofmt -l .)
    if [ -n "$fmt_diff" ]; then
        echo "gofmt needed on: $fmt_diff" >&2
        exit 1
    fi
}

# go vet plus the repo's own determinism vet (cmd/uvevet): no wall-clock
# reads, no global math/rand draws, no map iteration order leaking into
# rendered reports in the simulation packages.
step_vet() {
    $GO vet ./...
    $GO run ./cmd/uvevet
}

step_build() {
    $GO build ./...
}

# Static stream/program verification of all 19 kernels × 3 ISA variants.
step_lint() {
    $GO run ./cmd/uvelint -all
}

# A targeted race run for the parallel experiment runner and the
# simulation facade it drives, then the full race-detected suite.
step_race() {
    $GO test -race ./internal/bench ./internal/sim
    $GO test -race ./...
}

# Short native-fuzzing smoke (one -fuzz target per invocation): the
# descriptor iterator and symbolic footprint, the cost model's closed-form
# walk, the abstract-interpretation soundness oracle, the wire decoder and
# round trip, the store's entry decoder, and the stream sanitizer's page
# table against its byte-map reference.
step_fuzz_smoke() {
    $GO test -run '^$' -fuzz '^FuzzIterator$' -fuzztime 5s ./internal/descriptor
    $GO test -run '^$' -fuzz '^FuzzFootprint$' -fuzztime 5s ./internal/descriptor
    $GO test -run '^$' -fuzz '^FuzzClosedFormWalk$' -fuzztime 5s ./internal/cost
    $GO test -run '^$' -fuzz '^FuzzAbsintSoundness$' -fuzztime 5s ./internal/absint
    $GO test -run '^$' -fuzz '^FuzzWireDecode$' -fuzztime 5s ./internal/wire
    $GO test -run '^$' -fuzz '^FuzzWireRoundTrip$' -fuzztime 5s ./internal/wire
    $GO test -run '^$' -fuzz '^FuzzDecodeEntry$' -fuzztime 5s ./internal/store
    $GO test -run '^$' -fuzz '^FuzzShadowEquivalence$' -fuzztime 5s ./internal/engine
}

# One Fig 8 regeneration through the benchmark harness — cheap proof that
# the full kernel × machine matrix still assembles, runs and validates.
step_bench_smoke() {
    $GO test -run '^$' -bench '^BenchmarkFig8$' -benchtime 1x .
}

# Execution-tier smoke: the functional/cycle differential oracle and the
# event-skip bit-equivalence suite race-detected (the functional sweep
# fans out over the worker pool), a short differential fuzz pass, and one
# race-detected end-to-end functional sweep through the uvebench CLI.
step_tier_smoke() {
    $GO test -race -run 'TestFunctionalDifferential|TestEventSkipEquivalence' ./internal/sim
    $GO test -run '^$' -fuzz '^FuzzTierDifferential$' -fuzztime 5s ./internal/sim
    $GO run -race ./cmd/uvebench -fidelity functional -scale 64 > /dev/null
}

# Trace smoke: a traced saxpy run must emit a valid Chrome trace file, the
# tracing machinery (compiled in but disabled) must leave uvesim's stdout
# byte-identical to the traced run's, and uvebench's figure output must be
# byte-identical between sequential and parallel execution.
step_trace_smoke() {
    $GO run ./cmd/uvesim -kernel C -size 512 > "$tmp/plain.txt"
    $GO run ./cmd/uvesim -kernel C -size 512 -trace "$tmp/saxpy.json" > "$tmp/traced.txt" 2> /dev/null
    $GO run ./scripts/jsonvalid "$tmp/saxpy.json"
    cmp "$tmp/plain.txt" "$tmp/traced.txt"
    $GO run ./cmd/uvebench -exp fig8 -scale 256 -j 1 > "$tmp/fig8-seq.txt"
    $GO run ./cmd/uvebench -exp fig8 -scale 256 > "$tmp/fig8-par.txt"
    cmp "$tmp/fig8-seq.txt" "$tmp/fig8-par.txt"
}

# Fault smoke: seeded injection is deterministic — the same seed must give
# byte-identical output for one faulted run and for the full campaign table
# (every kernel × {UVE,SVE} × seed grid, each checked against the
# fault-free memory image) — and the campaign paths run race-detected.
step_fault_smoke() {
    $GO run ./cmd/uvesim -kernel C -size 512 -faults seed=7 > "$tmp/fault1.txt"
    $GO run ./cmd/uvesim -kernel C -size 512 -faults seed=7 > "$tmp/fault2.txt"
    cmp "$tmp/fault1.txt" "$tmp/fault2.txt"
    $GO run ./cmd/uvebench -exp faults -scale 512 > "$tmp/campaign1.txt"
    $GO run ./cmd/uvebench -exp faults -scale 512 > "$tmp/campaign2.txt"
    cmp "$tmp/campaign1.txt" "$tmp/campaign2.txt"
    $GO test -race -run Fault ./internal/fault ./internal/sim ./internal/bench
}

# Watchdog smoke: an intentionally starved run (every line fetch NACKed
# into long back-offs, tight no-commit bound) must exit non-zero with the
# structured diagnostic — never hang.
step_watchdog_smoke() {
    if $GO run ./cmd/uvesim -kernel C -size 65536 \
        -faults seed=7,nack=900,nack-backoff=200 -watchdog 150 > "$tmp/wd.txt" 2>&1; then
        echo "watchdog smoke: starved run exited zero" >&2
        exit 1
    fi
    grep -q watchdog "$tmp/wd.txt"
    grep -q "stream table" "$tmp/wd.txt"
}

# Wire-format smoke: the canonical encoder must be bit-reproducible (two
# corpus encodes diff clean), every blob must disassemble, -verify must
# certify canonicality and lint-verdict identity for the whole corpus, and
# the README walkthrough (encode saxpy -> disassemble -> statically verify)
# must work end to end.
step_wire_smoke() {
    $GO build -o "$tmp/uveasm" ./cmd/uveasm
    "$tmp/uveasm" -o "$tmp/wire-a" > /dev/null
    "$tmp/uveasm" -o "$tmp/wire-b" > /dev/null
    diff -r "$tmp/wire-a" "$tmp/wire-b"
    "$tmp/uveasm" -d "$tmp/wire-a"/*.uve > /dev/null
    "$tmp/uveasm" -verify "$tmp/wire-a"/*.uve > /dev/null
    "$tmp/uveasm" -kernel C -variant uve -o "$tmp/saxpy.uve" > /dev/null
    "$tmp/uveasm" -d "$tmp/saxpy.uve" | grep -q saxpy
    "$tmp/uveasm" -lint "$tmp/saxpy.uve" | grep -q "certificate: safe=true"
}

# Cost-model validation sweep: the static model's exact traffic predictions
# must match the simulator's committed counters and every cycle lower bound
# must hold across the full kernel × variant matrix (the degeneracy gate
# fails the run on any violation); the -json lint+cost report must be valid
# machine-readable JSON.
step_model_smoke() {
    $GO run ./cmd/uvebench -exp model -scale 256 > /dev/null
    $GO run ./cmd/uvelint -all -cost -json | $GO run ./scripts/jsonvalid
}

# Prove smoke: the abstract-interpretation prover must be deterministic
# (two -deps sweeps render byte-identically, certificates included) and
# effective (the prover bounds HACCmk's scalar-store addresses, which
# certifies it collision-free; a certified kernel elides the sanitizer
# under -sanitize=auto). The certified-elision wall clock is recorded by the
# sanitize-on/sanitize-auto BenchmarkSimWall cells that perf-smoke gates
# against BENCH_simwall.json.
step_prove_smoke() {
    $GO run ./cmd/uvelint -all -deps > "$tmp/prove1.txt"
    $GO run ./cmd/uvelint -all -deps > "$tmp/prove2.txt"
    cmp "$tmp/prove1.txt" "$tmp/prove2.txt"
    grep -q "proven outside the stream footprint by value-range analysis" "$tmp/prove1.txt"
    $GO run ./cmd/uvelint -kernel L -variant uve -deps | grep -q "collision-free=true"
    $GO run ./cmd/uvesim -kernel L -size 256 -fidelity functional -sanitize=auto | grep -q "sanitizer:         elided"
}

# Serve smoke: the uveserve daemon end to end over curl — two concurrent
# clients receive byte-identical reports for the same kernel × variant ×
# size matrix, a mixed valid/invalid batch and an oversized body register
# nothing, SIGTERM drains cleanly with a job in flight, and a restart over
# the same store directory serves everything from disk (hit rate > 0).
step_serve_smoke() {
    ./scripts/servesmoke.sh
}

# Examples smoke: every program under examples/ — the public uve API's
# end-to-end users besides the uve_*_test.go suites — builds, exits zero
# and prints byte-identical output on two runs.
step_examples_smoke() {
    $GO build -o "$tmp/examples/" ./examples/...
    for ex in "$tmp"/examples/*; do
        "$ex" > "$tmp/example1.txt"
        "$ex" > "$tmp/example2.txt"
        cmp "$tmp/example1.txt" "$tmp/example2.txt"
    done
}

# Wall-clock trajectory gate: re-measures the BenchmarkSimWall cells and
# fails on >2x regression vs the committed BENCH_simwall.json. Absolute
# numbers are host-dependent (the baseline names its host) and shared CI
# machines are noisy, hence the deliberately loose 2x threshold; after an
# intentional perf change, regenerate with `make perf-baseline`.
step_perf_smoke() {
    ./scripts/perfsmoke.sh
}

if [ $# -eq 0 ]; then
    set -- $steps
fi
for step in "$@"; do
    fn=step_$(echo "$step" | tr - _)
    if ! command -v "$fn" > /dev/null; then
        echo "check.sh: unknown step $step (steps: $steps)" >&2
        exit 2
    fi
    "$fn"
done
