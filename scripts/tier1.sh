#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green.
#
# Usage: scripts/tier1.sh [stage...]
#   stages: build test faults bench sim scale tenants migrate replay lint
#   No arguments runs every stage in that order (the full PR gate). CI runs
#   the same stages one job each — `scripts/tier1.sh build`, etc. — so a
#   local no-arg run reproduces the whole pipeline stage by stage.
#
# Fault-matrix knobs (crates/core/tests/faults.rs):
#   DMTCP_FAULT_ROTATING=N  run the matrix with N extra date-derived base
#                           seeds on top of the fixed ones (default here: 2),
#                           so CI gradually sweeps fresh fault schedules
#                           while staying reproducible — a failing cell
#                           prints the exact DMTCP_FAULT_SEEDS value to
#                           replay it. Set to 0 for fixed seeds only.
#   DMTCP_FAULT_SEEDS       comma-separated explicit base seeds (hex or
#                           decimal) — replaces the fixed defaults; use the
#                           value printed by a failing run to reproduce it.
#   DMTCP_TEST_EV_BUDGET    per-run simulation event budget for the heavier
#                           integration tests (default 8000000).
set -euo pipefail
cd "$(dirname "$0")/.."

stage_build() {
    echo "== cargo build --release =="
    cargo build --release --workspace
}

stage_test() {
    echo "== cargo test (fault matrix deferred to the faults stage) =="
    # The matrix is a stage of its own; skip it here so a full pipeline run
    # executes each cell exactly once.
    DMTCP_FAULT_SKIP_DEFAULT=1 cargo test -q --workspace
    echo "== perfbench build + unit tests (compiles against the crates/* APIs) =="
    cargo build --release --manifest-path perfbench/Cargo.toml
    cargo test -q --manifest-path perfbench/Cargo.toml
}

stage_faults() {
    echo "== fault matrix (fixed + rotating seeds) =="
    DMTCP_FAULT_ROTATING="${DMTCP_FAULT_ROTATING:-2}" cargo test -q -p dmtcp --test faults
}

# Strip what a figure binary prints besides its figure: the "# wrote <path>"
# lines and trailing blank lines.
golden_normalize() {
    awk '/^# wrote /{next} /^$/{n++; next} {for(;n>0;n--) print ""; print}'
}

stage_bench() {
    echo "== ckptstore smoke bench (3 generations, NAS/MG + incremental >=10x gate) =="
    cargo build --release -p dmtcp-bench
    ./target/release/ckptstore --smoke
    echo "== downtime smoke bench (perceived vs total checkpoint time) =="
    ./target/release/downtime --smoke
    echo "== golden outputs (virtual-time figures equal the committed results/<name>.txt) =="
    local name out
    for name in table1 fig3 fig6 runcms ablation; do
        out=$(./target/release/"$name")
        if ! diff -u <(golden_normalize <"results/$name.txt") <(printf '%s\n' "$out" | golden_normalize); then
            echo "tier1: $name output differs from results/$name.txt" >&2
            return 1
        fi
    done
    echo "== szip kernel micro bench (smoke, no gate) =="
    cargo bench -p dmtcp-bench -- szip crc32
    echo "== bench-regression gate =="
    scripts/bench_gate.sh self-test
    scripts/bench_gate.sh compare
}

stage_sim() {
    echo "== sim engine throughput bench (timer wheel vs reference heap, >=5x gate) =="
    cargo build --release -p dmtcp-bench
    ./target/release/sim --smoke
    echo "== sim bench-regression gate =="
    scripts/bench_gate.sh self-test
    # Unlike every other gate file, events/sec is wall-clock: the committed
    # baseline is set well below measured values and the tolerance widened,
    # so the gate catches engine-speed collapses, not machine variance.
    BENCH_GATE_TOLERANCE="${BENCH_GATE_TOLERANCE:-0.5}" \
        scripts/bench_gate.sh compare results/BENCH_sim.json scripts/BENCH_sim.baseline.json
}

stage_scale() {
    echo "== scale smoke bench (flat star vs per-node relays) =="
    cargo build --release -p dmtcp-bench
    ./target/release/scale --smoke
    echo "== scale bench-regression gate =="
    scripts/bench_gate.sh compare results/BENCH_scale.json scripts/BENCH_scale.baseline.json
}

stage_tenants() {
    echo "== multi-tenant service tests (admission, isolation, quotas, shard faults) =="
    cargo test -q -p svc
    echo "== tenants smoke bench (shared coordinator vs sharded dmtcpd, >=3x gate) =="
    cargo build --release -p dmtcp-bench
    ./target/release/tenants --smoke
    echo "== tenants bench-regression gate =="
    scripts/bench_gate.sh compare results/BENCH_tenants.json scripts/BENCH_tenants.baseline.json
}

stage_migrate() {
    echo "== heterogeneous restart + live migration tests (RestartPlan API) =="
    cargo test -q -p dmtcp --test migrate
    echo "== migrate smoke bench (subset migration pause vs full cycle, >=3x gate) =="
    cargo build --release -p dmtcp-bench
    ./target/release/migrate --smoke
    echo "== migrate bench-regression gate =="
    scripts/bench_gate.sh compare results/BENCH_migrate.json scripts/BENCH_migrate.baseline.json
}

stage_replay() {
    echo "== flight-recorder record/replay smoke (zero divergence) =="
    cargo test -q -p dmtcp --test replay
    echo "== journal codec property tests =="
    cargo test -q -p obs --test prop_journal
}

stage_lint() {
    echo "== cargo clippy (-D warnings) =="
    cargo clippy --workspace --all-targets -- -D warnings
    echo "== cargo fmt --check =="
    cargo fmt --all -- --check
}

run_stage() {
    local name="$1"
    case "$name" in
        build | test | faults | bench | sim | scale | tenants | migrate | replay | lint) ;;
        *)
            echo "tier1: unknown stage '$name' (stages: build test faults bench sim scale tenants migrate replay lint)" >&2
            exit 2
            ;;
    esac
    local t0 t1
    t0=$SECONDS
    "stage_$name"
    t1=$SECONDS
    echo "tier1: stage $name OK ($((t1 - t0))s)"
}

if [[ $# -eq 0 ]]; then
    set -- build test faults bench sim scale tenants migrate replay lint
fi
for stage in "$@"; do
    run_stage "$stage"
done
echo "tier1: OK"
