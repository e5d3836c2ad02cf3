#!/bin/sh
# PR gate without make: formatting, vet, static kernel verification, build,
# race-detected tests (exercising the parallel experiment runner), a short
# fuzz smoke over the descriptor iterator, footprint abstraction and the
# abstract-interpretation soundness oracle, a one-shot Fig 8 benchmark
# smoke, execution-tier differential smokes, trace/fault determinism
# smokes, the watchdog no-hang smoke, the wire-format canonicality smoke,
# the prove/certificate smoke, the examples smoke and the wall-clock perf
# gate against the committed BENCH_simwall.json.
set -eux
cd "$(dirname "$0")/.."

fmt_diff=$(gofmt -l .)
if [ -n "$fmt_diff" ]; then
    echo "gofmt needed on: $fmt_diff" >&2
    exit 1
fi
go vet ./...
# Determinism vet: the simulation/report packages must not read the wall
# clock, draw from the global math/rand source, or let map iteration order
# leak into rendered output.
go run ./cmd/uvevet
go build ./...
go run ./cmd/uvelint -all
# Targeted race run for the PR-1 parallel experiment runner and the
# simulation facade it drives, then the full race-detected suite.
go test -race ./internal/bench ./internal/sim
go test -race ./...
# Fuzz smokes (one -fuzz target per invocation): descriptor address
# iterator and symbolic footprint vs. the concrete oracle.
go test -run '^$' -fuzz '^FuzzIterator$' -fuzztime 5s ./internal/descriptor
go test -run '^$' -fuzz '^FuzzFootprint$' -fuzztime 5s ./internal/descriptor
go test -run '^$' -fuzz '^FuzzClosedFormWalk$' -fuzztime 5s ./internal/cost
go test -run '^$' -fuzz '^FuzzAbsintSoundness$' -fuzztime 5s ./internal/absint
go test -run '^$' -fuzz '^FuzzWireDecode$' -fuzztime 5s ./internal/wire
go test -run '^$' -fuzz '^FuzzWireRoundTrip$' -fuzztime 5s ./internal/wire
go test -run '^$' -fuzz '^FuzzDecodeEntry$' -fuzztime 5s ./internal/store
go test -run '^$' -bench '^BenchmarkFig8$' -benchtime 1x .
# Execution-tier smoke: the functional/cycle differential oracle and the
# event-skip bit-equivalence suite race-detected, a short differential
# fuzz pass, and one race-detected end-to-end functional sweep through
# the uvebench CLI.
go test -race -run 'TestFunctionalDifferential|TestEventSkipEquivalence' ./internal/sim
go test -run '^$' -fuzz '^FuzzTierDifferential$' -fuzztime 5s ./internal/sim
go run -race ./cmd/uvebench -fidelity functional -scale 64 > /dev/null
# Trace smoke: a traced saxpy run must emit a valid Chrome trace file, and
# the tracing machinery — compiled in but disabled — must leave uvesim's
# stdout byte-identical to the traced run's, and uvebench's figure output
# byte-identical between sequential and parallel execution.
tracedir=$(mktemp -d)
trap 'rm -rf "$tracedir"' EXIT
go run ./cmd/uvesim -kernel C -size 512 > "$tracedir/plain.txt"
go run ./cmd/uvesim -kernel C -size 512 -trace "$tracedir/saxpy.json" > "$tracedir/traced.txt" 2> /dev/null
go run ./scripts/jsonvalid "$tracedir/saxpy.json"
cmp "$tracedir/plain.txt" "$tracedir/traced.txt"
go run ./cmd/uvebench -exp fig8 -scale 256 -j 1 > "$tracedir/fig8-seq.txt"
go run ./cmd/uvebench -exp fig8 -scale 256 > "$tracedir/fig8-par.txt"
cmp "$tracedir/fig8-seq.txt" "$tracedir/fig8-par.txt"
# Wire-format smoke: the canonical encoder must be bit-reproducible (two
# corpus encodes diff clean), every blob must disassemble, -verify must
# certify canonicality and lint-verdict identity for the whole corpus, and
# the README walkthrough (encode saxpy -> disassemble -> statically verify)
# must work end to end.
go build -o "$tracedir/uveasm" ./cmd/uveasm
"$tracedir/uveasm" -o "$tracedir/wire-a" > /dev/null
"$tracedir/uveasm" -o "$tracedir/wire-b" > /dev/null
diff -r "$tracedir/wire-a" "$tracedir/wire-b"
"$tracedir/uveasm" -d "$tracedir/wire-a"/*.uve > /dev/null
"$tracedir/uveasm" -verify "$tracedir/wire-a"/*.uve > /dev/null
"$tracedir/uveasm" -kernel C -variant uve -o "$tracedir/saxpy.uve" > /dev/null
"$tracedir/uveasm" -d "$tracedir/saxpy.uve" | grep -q saxpy
"$tracedir/uveasm" -lint "$tracedir/saxpy.uve" | grep -q "certificate: safe=true"
# Cost-model validation sweep: the static descriptor model's exact traffic
# predictions must equal the simulator's committed counters and every cycle
# lower bound must hold across the full kernel × variant matrix (-exp model
# fails via the degeneracy gate on any violation); the machine-readable
# lint+cost report must be valid JSON end to end.
go run ./cmd/uvebench -exp model -scale 256 > /dev/null
go run ./cmd/uvelint -all -cost -json | go run ./scripts/jsonvalid
# Prove smoke: the value-range prover is deterministic — two -deps sweeps
# must render byte-identically, certificates included — and actually
# proves: it bounds the HACCmk scalar-store addresses, which certifies the
# kernel collision-free, and a certified kernel elides the sanitizer under
# -sanitize=auto.
# The certified-elision wall clock rides the sanitize-on/sanitize-auto
# BenchmarkSimWall cells, gated below against BENCH_simwall.json.
go run ./cmd/uvelint -all -deps > "$tracedir/prove1.txt"
go run ./cmd/uvelint -all -deps > "$tracedir/prove2.txt"
cmp "$tracedir/prove1.txt" "$tracedir/prove2.txt"
grep -q "proven outside the stream footprint by value-range analysis" "$tracedir/prove1.txt"
go run ./cmd/uvelint -kernel L -variant uve -deps | grep -q "collision-free=true"
go run ./cmd/uvesim -kernel L -size 256 -fidelity functional -sanitize=auto | grep -q "sanitizer:         elided"
# Fault smoke: seeded injection is deterministic — the same seed must give
# byte-identical output for a single faulted run and for the full campaign
# table (every kernel × {UVE,SVE} × seed grid, each checked against the
# fault-free memory image) — and the campaign paths run race-detected.
go run ./cmd/uvesim -kernel C -size 512 -faults seed=7 > "$tracedir/fault1.txt"
go run ./cmd/uvesim -kernel C -size 512 -faults seed=7 > "$tracedir/fault2.txt"
cmp "$tracedir/fault1.txt" "$tracedir/fault2.txt"
go run ./cmd/uvebench -exp faults -scale 512 > "$tracedir/campaign1.txt"
go run ./cmd/uvebench -exp faults -scale 512 > "$tracedir/campaign2.txt"
cmp "$tracedir/campaign1.txt" "$tracedir/campaign2.txt"
go test -race -run Fault ./internal/fault ./internal/sim ./internal/bench
# Watchdog smoke: an intentionally starved run (every line fetch NACKed
# into long back-offs, tight no-commit bound) must exit non-zero with the
# structured diagnostic — never hang.
if go run ./cmd/uvesim -kernel C -size 65536 \
    -faults seed=7,nack=900,nack-backoff=200 -watchdog 150 > "$tracedir/wd.txt" 2>&1; then
    echo "watchdog smoke: starved run exited zero" >&2
    exit 1
fi
grep -q watchdog "$tracedir/wd.txt"
grep -q "stream table" "$tracedir/wd.txt"
# Serve smoke: the uveserve daemon end to end over curl — two concurrent
# clients get byte-identical reports for the same matrix, SIGTERM drains
# cleanly with an in-flight job, and a restart over the same store serves
# everything from disk with a positive hit rate.
./scripts/servesmoke.sh
# Examples smoke: every program under examples/ — the public uve API's
# end-to-end users besides the uve_*_test.go suites — builds, exits zero
# and prints byte-identical output on two runs.
go build -o "$tracedir/examples/" ./examples/...
for ex in "$tracedir"/examples/*; do
    "$ex" > "$tracedir/example1.txt"
    "$ex" > "$tracedir/example2.txt"
    cmp "$tracedir/example1.txt" "$tracedir/example2.txt"
done
# Wall-clock trajectory gate: BenchmarkSimWall cells vs the committed
# baseline, >2x regression fails (loose on purpose: absolute numbers are
# host-dependent; regenerate with `scripts/perfsmoke.sh -update` after an
# intentional perf change).
./scripts/perfsmoke.sh
