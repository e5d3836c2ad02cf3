#!/bin/sh
# Serve smoke: boots the uveserve daemon against an empty store, has two
# concurrent clients submit the same kernel x variant x size matrix, and
# asserts every client got byte-identical report documents from exactly one
# execution per matrix cell. The daemon is then SIGTERMed (clean drain must
# exit 0) and restarted over the same store directory; the resubmitted
# matrix must be served from disk with a positive hit rate and no
# execution, byte-identical to the first boot's reports, and submitted again
# it is keyed from the daemon's fingerprint memo without a kernel build.
set -eu
cd "$(dirname "$0")/.."

dir=$(mktemp -d)
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2> /dev/null || true
    rm -rf "$dir"
}
trap cleanup EXIT

go build -o "$dir/uveserve" ./cmd/uveserve

start_daemon() {
    rm -f "$dir/addr"
    "$dir/uveserve" -addr 127.0.0.1:0 -addr-file "$dir/addr" \
        -store "$dir/store" -j 2 2> "$dir/daemon.log" &
    pid=$!
    i=0
    while [ ! -f "$dir/addr" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "servesmoke: daemon never wrote $dir/addr" >&2
            cat "$dir/daemon.log" >&2
            exit 1
        fi
        sleep 0.1
    done
    addr=$(cat "$dir/addr")
}

# SIGTERM the daemon and require a clean drain: exit status 0, bounded.
stop_daemon() {
    kill -TERM "$pid"
    st=0
    wait "$pid" || st=$?
    pid=""
    if [ "$st" -ne 0 ]; then
        echo "servesmoke: daemon drain exited $st" >&2
        cat "$dir/daemon.log" >&2
        exit 1
    fi
}

matrix='{"jobs":[
  {"kernel":"C","variant":"uve","size":4096},
  {"kernel":"C","variant":"sve","size":4096},
  {"kernel":"A","variant":"uve","size":4096}
]}'

# submit_matrix <client> <outfile>: batch-submit and wait for completion.
submit_matrix() {
    curl -sS -f -H "X-UVE-Client: $1" -d "$matrix" \
        "http://$addr/v1/jobs?wait=1" > "$2"
}

# stat_of <field>: one /v1/stats counter.
stat_of() {
    curl -sS -f "http://$addr/v1/stats" | jq -r ".$1"
}

# require_simulated <n>: the daemon has run exactly n executions.
require_simulated() {
    sims=$(stat_of runner.simulated)
    if [ "$sims" -ne "$1" ]; then
        echo "servesmoke: runner.simulated = $sims, want $1" >&2
        exit 1
    fi
}

# fetch_reports <submit-response> <outdir>: pull the raw report bytes for
# each job, in matrix order.
fetch_reports() {
    mkdir -p "$2"
    i=0
    for id in $(jq -r '.jobs[].id' "$1"); do
        curl -sS -f "http://$addr/v1/jobs/$id/report" > "$2/$i.json"
        go run ./scripts/jsonvalid "$2/$i.json"
        i=$((i + 1))
    done
}

start_daemon

# Two concurrent clients, same matrix: byte-identical reports.
submit_matrix alice "$dir/alice.json" &
apid=$!
submit_matrix bob "$dir/bob.json"
wait "$apid"
[ "$(jq -r '[.jobs[].state] | unique | .[]' "$dir/alice.json")" = "done" ]
[ "$(jq -r '[.jobs[].state] | unique | .[]' "$dir/bob.json")" = "done" ]
fetch_reports "$dir/alice.json" "$dir/reports-alice"
fetch_reports "$dir/bob.json" "$dir/reports-bob"
diff -r "$dir/reports-alice" "$dir/reports-bob"
require_simulated 3 # one per matrix cell: repeats join or hit the store

# require_refused <status> <body-file>: posting the body answers <status>
# and registers no job.
require_refused() {
    before=$(stat_of jobs)
    code=$(curl -sS -o /dev/null -w '%{http_code}' --data-binary "@$2" "http://$addr/v1/jobs")
    after=$(stat_of jobs)
    if [ "$code" -ne "$1" ] || [ "$after" -ne "$before" ]; then
        echo "servesmoke: posting $2 answered $code with jobs $before -> $after, want $1 and no new job" >&2
        exit 1
    fi
}

# A batch is bounded and validated before any of it is registered: a
# valid spec beside an invalid one answers 400, a body over 1 MiB 413, and
# a size over the kernel's bound 400.
echo '{"jobs":[{"kernel":"C","variant":"uve","size":256},{"kernel":"ZZZ","variant":"uve"}]}' > "$dir/mixed.json"
jq -c -n '{jobs: [range(40001) | {kernel: "C", variant: "uve", size: 256}]}' > "$dir/big.json"
echo '{"kernel":"K","variant":"uve","size":48}' > "$dir/oversized.json"
require_refused 400 "$dir/mixed.json"
require_refused 413 "$dir/big.json"
require_refused 400 "$dir/oversized.json"

# Leave one simulation in flight, then SIGTERM: the drain must let it
# finish and still exit cleanly.
curl -sS -f -d '{"kernel":"C","variant":"uve","size":65536}' \
    "http://$addr/v1/jobs" > /dev/null
stop_daemon

# Restart over the same store: everything comes from disk, byte-identical,
# and the store hit counter is positive. The new daemon fingerprints each
# cell once; the same matrix again is keyed from its memo, with no build.
start_daemon
for round in 1 2; do
    submit_matrix carol "$dir/carol-$round.json"
    [ "$(jq -r '[.jobs[].from_store] | unique | .[]' "$dir/carol-$round.json")" = "true" ]
    fetch_reports "$dir/carol-$round.json" "$dir/reports-carol-$round"
    diff -r "$dir/reports-alice" "$dir/reports-carol-$round"
    builds=$(stat_of fingerprint_builds)
    if [ "$builds" -ne 3 ]; then
        echo "servesmoke: restart round $round fingerprint_builds = $builds, want 3" >&2
        exit 1
    fi
done
require_simulated 0
hits=$(stat_of store_hits)
if [ "$hits" -le 0 ]; then
    echo "servesmoke: restart store_hits = $hits, want > 0" >&2
    exit 1
fi
stop_daemon

echo "servesmoke: OK (restart hits=$hits)"
