#!/usr/bin/env sh
# Offline CI gate: build, test, lint, audit. No network access required —
# all dependencies are in-repo path crates (see DESIGN.md "Dependencies").
set -eu

# Per-step wall-clock timing: step <name> <cmd...> runs the command,
# echoes a banner before and the elapsed seconds after.
step() {
    name="$1"; shift
    echo "== $name =="
    t0=$(date +%s)
    "$@"
    echo "-- $name: $(( $(date +%s) - t0 ))s"
}

step "build (release)" cargo build --release --workspace --all-targets

step "test" cargo test -q --workspace

step "clippy (-D warnings)" cargo clippy --workspace --all-targets -- -D warnings

# The repository benchmark is a workspace of its own that builds these
# crates through path dependencies: build it and run its tests so a
# change to the API it calls fails here, not in the benchmark.
step "perfbench" cargo test --release --offline --manifest-path perfbench/Cargo.toml

# Verification layer: oracle sweep (200 sampled jobs, incl. degraded and
# faulted), timeline invariant audit over the fault corpus, golden-trace
# byte diff, and serve-path equivalence. Prints its own per-step timing;
# exits non-zero with a minimized repro / located byte diff on failure.
step "audit" ./target/release/espresso-audit all

# One decision + one /metrics scrape against an ephemeral-port server,
# then a clean shutdown. Exits non-zero on any non-200.
step "serve smoke" ./target/release/espresso-loadgen --smoke

# Brief load run (cached + uncached phases) regenerating BENCH_serve.json.
step "serve bench" ./target/release/espresso-loadgen --clients 4 --requests 2000 \
    --uncached-requests 200 --out BENCH_serve.json

# Fleet crash-equivalence gate: spawn a real server, register jobs and
# stream epoch-stamped health deltas, kill -9 it at the midpoint, restart
# on the same state directory, and require (a) the recovered job table to
# equal the pre-crash table byte-for-byte and (b) the final table after
# the remaining deltas to equal an uninterrupted control run's.
step "fleet gate" ./target/release/espresso-loadgen --fleet-gate

# Fleet bench: ~1200 jobs with a kill -9 + restart in the middle of the
# delta stream; regenerates BENCH_fleet.json (registration throughput,
# recovery time, delta-to-decision latency, stale serving under load).
step "fleet bench" ./target/release/espresso-loadgen --fleet --jobs 1200 --deltas 200 \
    --out BENCH_fleet.json

# Adaptive-ratio gate: the ratio-aware oracle sweep (layerwise allocator
# within 10% of exhaustive grid enumeration at equal error budget), then
# the fixed-vs-adaptive bench over the paper models; regenerates
# BENCH_adapt.json and fails unless the adaptive plan beats the best
# fixed ratio within budget on at least two models.
adapt_gate() {
    ./target/release/espresso-audit adapt
    ./target/release/adapt --out BENCH_adapt.json
}
step "adapt" adapt_gate

# Planner fast-path gate: the differential sweep (200 seeded jobs, incl.
# degraded / faulted / layerwise-ratio cases; fast vs reference planner
# must agree on every strategy, report field, robust score, and timeline
# span, bit for bit), then the cold-latency bench over the paper models;
# regenerates BENCH_decide.json and fails if the LSTM fast-path decision
# rate drops below the recorded baseline x 0.9.
decide_gate() {
    ./target/release/espresso-audit decide
    ./target/release/decide --out BENCH_decide.json
}
step "decide" decide_gate

# Multi-core planner path: the kill -9 fleet gate and the decide
# differential sweep (including its Planner-memo-vs-cold cross-request
# cases) again with ESPRESSO_PLANNER_THREADS=4, wider than a small CI
# host's default (its core count). The sweep diffs the fast planner at
# width 1 and at width 4 against the serial reference on every case, and
# the fleet replan workers share the server's four planner threads —
# byte identity must hold at any width. The batched-replanning throughput
# gate itself (≥3x shared-spec, ≤5% unique-spec regression) runs inside
# the "fleet bench" step above.
planner_threads_gate() {
    ESPRESSO_PLANNER_THREADS=4 ./target/release/espresso-loadgen --fleet-gate
    ESPRESSO_PLANNER_THREADS=4 ./target/release/espresso-audit decide
}
step "planner threads (4)" planner_threads_gate

# Crash/recovery gate: train with a checkpoint cadence, halt mid-run (a
# simulated process crash), resume from the checkpoint, and require the
# resumed run's weight and state fingerprints to equal an uninterrupted
# run's — the bitwise-resume guarantee, end to end through the CLI.
recover() {
    ckpt_dir=$(mktemp -d)
    faults="crash=30:1,slow=50-90:4.0"
    ./target/release/espresso-cli train --steps 120 --checkpoint-every 40 \
        --halt-at 70 --checkpoint-dir "$ckpt_dir" --faults "$faults" > /dev/null
    resumed=$(./target/release/espresso-cli train --steps 120 \
        --checkpoint-dir "$ckpt_dir" --resume --faults "$faults" \
        | grep -E "^(weights|state) fingerprint:")
    fresh=$(./target/release/espresso-cli train --steps 120 --faults "$faults" \
        | grep -E "^(weights|state) fingerprint:")
    rm -rf "$ckpt_dir"
    if [ "$resumed" != "$fresh" ]; then
        echo "recover: resumed fingerprints differ from uninterrupted run" >&2
        echo "resumed:" >&2; echo "$resumed" >&2
        echo "fresh:"   >&2; echo "$fresh" >&2
        exit 1
    fi
    echo "recover: crash at 70, resume from checkpoint 40, fingerprints match"
}
step "recover" recover

# Elastic-membership churn gate, both layers of the stack:
#  (a) training — a seeded churn plan (Poisson-ish interleaved
#      preemptions and re-joins from --churn-faults) halted mid-run and
#      resumed from a checkpoint must reach weight/state fingerprints
#      identical to the uninterrupted run, with shards re-expanding and
#      error-feedback residuals redistributed at every membership move;
#  (b) fleet — espresso-loadgen --churn streams worker losses AND
#      re-joins at the control plane, kill -9s the server mid-churn, and
#      requires the restarted run to converge byte-for-byte with an
#      uninterrupted control run; regenerates BENCH_churn.json.
churn() {
    ckpt_dir=$(mktemp -d)
    seed=7
    ./target/release/espresso-cli train --steps 120 --churn-faults "$seed" \
        --checkpoint-every 40 --halt-at 70 --checkpoint-dir "$ckpt_dir" > /dev/null
    resumed=$(./target/release/espresso-cli train --steps 120 --churn-faults "$seed" \
        --checkpoint-dir "$ckpt_dir" --resume \
        | grep -E "^(weights|state) fingerprint:")
    fresh=$(./target/release/espresso-cli train --steps 120 --churn-faults "$seed" \
        | grep -E "^(weights|state) fingerprint:")
    rm -rf "$ckpt_dir"
    if [ "$resumed" != "$fresh" ]; then
        echo "churn: resumed fingerprints differ from uninterrupted churn run" >&2
        echo "resumed:" >&2; echo "$resumed" >&2
        echo "fresh:"   >&2; echo "$fresh" >&2
        exit 1
    fi
    echo "churn: seeded churn plan resumed bitwise (seed $seed)"
    ./target/release/espresso-loadgen --churn --out BENCH_churn.json
}
step "churn" churn

echo "CI OK"
