#!/usr/bin/env bash
# Full local CI gate: build, tests, lints, formatting.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (workspace: includes the loopback chaos matrices)"
cargo test --workspace -q

echo "==> perfbench build + self-test (its own cargo workspace: the --workspace steps never compile it)"
# The benchmark compiles against the crates' public API by path; building
# it here turns an API break into a red CI instead of a broken benchmark.
cargo build --release --manifest-path perfbench/Cargo.toml
cargo test -q --release --manifest-path perfbench/Cargo.toml

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> bench smoke (kernels, quick mode)"
cargo bench -q -p bench-harness --bench kernels -- --test

echo "==> bench smoke (chain_epilogue, quick mode)"
cargo bench -q -p bench-harness --bench chain_epilogue -- --test

echo "==> BENCH_epilogue.json well-formed"
# Quick mode writes under target/; the committed copy lives at the root.
for f in target/BENCH_epilogue.json BENCH_epilogue.json; do
    if [ -f "$f" ]; then
        if command -v jq >/dev/null 2>&1; then
            jq -e '.epilogue.speedup and .data_path_bytes.ratio' "$f" >/dev/null
        else
            python3 -c "import json,sys; d=json.load(open(sys.argv[1])); d['epilogue']['speedup']; d['data_path_bytes']['ratio']" "$f"
        fi
        echo "    $f OK"
    fi
done

echo "==> comm smoke (4 ranks x 4 workers over sockets, v1..v5 + fused v5 vs single-process energies, verified tile cache)"
# The smoke runs every rank with 4 stealing workers beside the comm
# progress thread (the fused-engine hot configuration) and the tile
# cache in paranoia mode: each cache hit is re-fetched fresh from the
# owners and compared, and a single stale read fails the gate. A healthy
# mesh must also show zero recovery activity — any retry/timeout/dup on
# the clean sockets fails CI. Single rep per variant keeps wall time
# bounded. Also enforces the wire-accounting reconciliation (GA remote
# get bytes == endpoint requested get bytes == endpoint wire bytes).
cargo run -q --release -p bench-harness --bin comm_bench -- --smoke --threads 4 --reps 1

echo "==> comm chaos matrix (4 ranks x 4 workers over sockets, fault schedules + kill/restart matrix, fixed seeds)"
# The 4-rank loopback matrix (7 schedules x 2 variants, plus comm-level
# chaos) already ran under `cargo test`; this adds the real-socket pass.
# The same invocation also runs the kill/restart death matrix: four
# scripted death schedules (mid-gemm, mid-barrier, mid-submit, and
# kill-then-restart) where the survivors' failure detector must confirm
# the victim's death — plus a clean control that must show zero detector
# false positives and zero recovery activity. Fixed seed so a red run
# replays exactly; fails on energy divergence, any recovery activity in
# the clean control, or any verified-stale cached read under faults
# (the cache runs with verify_reads here too).
cargo run -q --release -p bench-harness --bin comm_bench -- --chaos --seed c0ffee00

echo "==> service smoke (4-rank socket daemons, 2-gang configuration, 2 tenants, 4 jobs)"
# Persistent per-rank daemons serve a multi-tenant job stream over real
# sockets in the gang-scheduled configuration: two 2-rank-gang jobs run
# concurrently on disjoint rank subsets, then two full-mesh jobs. The
# binary gates on every job's energy matching the single-process
# reference to 1e-12, well-formed gang fields (non-empty in-mesh masks
# of the requested size, dense per-gang ordinals), per-rank job counts
# and plan-cache hits exactly as the gang-scoped plan keys predict, and
# — on the clean mesh — zero retries and zero verified-stale cached
# reads. The printed gang masks double-check the 2-gang shape below.
smoke_out=$(cargo run -q --release -p bench-harness --bin service_bench -- --smoke)
echo "$smoke_out"
echo "$smoke_out" | grep -q "SERVICE SMOKE OK" || { echo "service smoke failed"; exit 1; }
echo "$smoke_out" | grep -q "gangs 0b[01]*/0b[01]*" || { echo "gang fields malformed in smoke output"; exit 1; }
echo "$smoke_out" | grep -q "0 retries, 0 stale reads" || { echo "smoke not clean"; exit 1; }

echo "==> service recovery gate (4-rank socket daemons, rank 3 killed mid-stream, checkpoint + replay gates)"
# The kill-mid-run survival story over real OS processes: rank 3's
# transport goes dark at a scripted frame index while six full-mesh
# jobs stream through the service. Every survivor's detector must
# confirm the death, the gateway must fence the victim and requeue the
# jobs caught on the broken mesh, the replays must match their per-job
# reference energies to 1e-12 with zero stale reads, and job-boundary
# checkpoints must land on disk. The printed --kill-at/--seed pair
# replays a red run exactly; the run amends the `recovery` block of
# BENCH_service.json checked below.
rec_out=$(cargo run -q --release -p bench-harness --bin service_bench -- --recovery)
echo "$rec_out"
echo "$rec_out" | grep -q "RECOVERY OK" || { echo "service recovery gate failed"; exit 1; }

echo "==> BENCH_service.json well-formed"
if [ -f BENCH_service.json ]; then
    if command -v jq >/dev/null 2>&1; then
        jq -e '.baseline.throughput_jobs_per_sec and .gangs.throughput_jobs_per_sec
               and .gangs.plan_cache.hit_rate and (.gangs.plan_cache | has("evictions"))
               and .gang_win.jobs_per_sec_gain and .gang_win.small_job_p50_speedup
               and (.baseline.tenants | length > 0) and (.gangs.tenants | length > 0)
               and .recovery.requeued_jobs >= 1 and .recovery.confirmed_deaths >= 1
               and .recovery.checkpoint_bytes > 0 and .recovery.stale_reads == 0
               and (.recovery | has("time_to_detect_ms") and has("time_to_recover_ms")
                    and has("replayed_chains"))' \
            BENCH_service.json >/dev/null
    else
        python3 -c "import json,sys; d=json.load(open(sys.argv[1])); d['baseline']['throughput_jobs_per_sec']; d['gangs']['plan_cache']['evictions']; d['gang_win']['jobs_per_sec_gain']; d['gang_win']['small_job_p50_speedup']; assert d['baseline']['tenants'] and d['gangs']['tenants']; r=d['recovery']; assert r['requeued_jobs'] >= 1 and r['confirmed_deaths'] >= 1 and r['checkpoint_bytes'] > 0 and r['stale_reads'] == 0; r['time_to_detect_ms']; r['time_to_recover_ms']; r['replayed_chains']" BENCH_service.json
    fi
    echo "    BENCH_service.json OK"
fi

echo "CI OK"
