#!/usr/bin/env bash
# Workspace lint gate: formatting, clippy (deny warnings), then the
# tier-1 check from ROADMAP.md with a per-test-binary runtime budget.
# Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

# The gate leaves the tree as it found it: compared again at the end.
tree_before="$(git status --porcelain)"

# Any single test binary (or doctest batch) slower than this many
# seconds fails the gate — the wall-clock regression ISSUE 2 fixed must
# not silently return. Override for slow machines: SNIC_TEST_BUDGET_S.
budget="${SNIC_TEST_BUDGET_S:-120}"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Inventory: an item stays only if something names it. Lists every
# `pub fn|struct|enum|trait|const|type|static` declared before a
# `crates/*/src` file's first `#[cfg(test)]` whose name occurs nowhere
# else — in no other file under crates/, src/, tests/, examples/ or
# benchmark/src, and not again in its own file's non-test code. Comment
# lines and `pub use` re-exports do not count as naming it. A name that
# also occurs elsewhere passes, so this is a floor, not a proof. The
# allowlist is empty: delete the item with its test, or move it into
# the test module when it is a probe a test relies on.
echo "==> inventory: pub items nothing names"
mapfile -t rust_files < <(find crates src tests examples benchmark/src -name '*.rs' | sort)
orphans="$(awk '
FNR == 1 { live = 1 }
live && /#\[cfg\(test\)\]/ { live = 0 }
live && FILENAME ~ /^crates\/[^\/]+\/src\// &&
    match($0, /^[ \t]*pub (const |unsafe |async )*(fn|struct|enum|trait|const|type|static) +(mut +)?[A-Za-z_][A-Za-z0-9_]*/) {
    n = split(substr($0, RSTART, RLENGTH), decl, /[ \t]+/)
    item[FILENAME SUBSEP decl[n]] = FNR
}
!/^[ \t]*(\/\/|pub use )/ {
    rest = $0
    while (match(rest, /[A-Za-z_][A-Za-z0-9_]*/)) {
        word = substr(rest, RSTART, RLENGTH)
        if (!((word, FILENAME) in seen)) { seen[word, FILENAME] = 1; files[word]++ }
        if (live) own[word, FILENAME]++
        rest = substr(rest, RSTART + RLENGTH)
    }
}
END {
    for (k in item) {
        split(k, at, SUBSEP)
        if (files[at[2]] == 1 && own[at[2], at[1]] == 1) print at[1] ":" item[k] ": " at[2]
    }
}' "${rust_files[@]}" | sort)"
if [ -n "$orphans" ]; then
    echo "FAIL: pub items named nowhere outside their declaration and its file's tests:" >&2
    echo "$orphans" >&2
    exit 1
fi

# `cargo test -q "$@"` under the per-binary budget: `cargo test -q` ends
# each binary's summary with "... finished in X.XXs".
test_log="$(mktemp)"
trap 'rm -f "$test_log"' EXIT
budgeted_test() {
    cargo test -q "$@" 2>&1 | tee "$test_log"
    local slow
    slow="$(awk -v budget="$budget" '/finished in [0-9.]+s$/ { if ($NF + 0 > budget) print }' "$test_log")"
    if [ -n "$slow" ]; then
        echo "FAIL: test runtime budget of ${budget}s exceeded:" >&2
        echo "$slow" >&2
        exit 1
    fi
}

# Tier-1 covers every crate: `default-members` in the root manifest
# makes the plain command test the facade package and `crates/*`. Among
# the suites that matter most to a refactor:
#
# - The layers regeneration runs through (snic-types, snic-trace,
#   snic-nf): headers-only frames are prefixes of full frames, no
#   header-only NF reads a payload, the bulk DIR-24-8 build equals
#   ordered inserts.
# - Fault-matrix smoke (`fault_determinism`): the blast-radius
#   differential must be deterministic regardless of executor
#   parallelism.
# - Golden snapshots (`golden`): every figure pipeline's rendered output
#   at the pinned scale must match the checked-in documents
#   byte-for-byte (regenerate intentionally with SNIC_BLESS=1).
# - Determinism differentials (`cache_differential`,
#   `engine_differential`, `shard_determinism`): the optimized hot path
#   (packed tag scan, recency-ordered private L1, batched front → back
#   hand-off) must match the reference models event-for-event, and
#   sharding a colocation run across worker threads must be
#   byte-identical to the serial interleaving engine — stats and
#   telemetry both — for every shard count.
#   `pipelined_inline_and_reference_agree` holds the engine with its
#   fronts on a helper thread to the same engine inline and to the
#   reference (1–32 lanes, warm-ups inside a batch, at a batch edge and
#   past the stream, sink off and on);
#   `a_panicking_source_panics_the_caller_in_both_modes` and
#   `an_exhausted_budget_starts_no_helper` pin the helper's panic and
#   thread-budget contracts. The tier-1 run mostly takes the pipelined
#   path on large calls; the same suite and the goldens run once more
#   below with `SNIC_SIM_THREADS=1`, where no engine call may start a
#   helper.
# - The S-NIC RX ring (`snic-core` `device`):
#   `a_frame_that_would_lap_the_ring_is_dropped_not_overlaid` and
#   `rx_ring_polls_back_every_accepted_frame_intact` — a frame whose
#   aligned slot would reach the oldest unpolled one is dropped, and
#   every accepted frame polls back byte-equal in FIFO order in both
#   modes; `a_tick_past_the_end_of_the_clock_is_refused_without_effect`
#   (`snic-serve` `daemon`) — the clock never wraps.
# - Streaming identity (`streaming_differential`,
#   `parallel_determinism`): a streamed tenant pipeline must equal its
#   materialized recording event for event, and serial, parallel and
#   sharded runs of one job spec must agree — the oracles any change to
#   regeneration (what a tenant is fed, how tenants are built) leans on.
#   `interleaved_32_tenant_mix_is_the_oracle_of_every_split` holds the
#   one-lane-per-tenant split to the 32-lane interleaved engine call,
#   stats and telemetry, for shard counts that divide 32, do not, and
#   exceed it.
# - Residency (`deferred_residency_is_bounded_by_workers` in
#   snic-bench's `colo`): a split run builds each tenant's pipeline
#   once, holds at most min(shards, workers) of them at a time, and
#   leaves none behind — what the streaming gate's RSS budget below
#   measures from outside.
# - The lifecycle kernels against the implementations they replaced
#   (snic-crypto, snic-mem): Montgomery `modpow` ≡ the retained
#   square-and-multiply, CRT `sign` ≡ `m^d mod n` with a faulted half
#   caught before release, range-keyed `PageOwnership` and the slab
#   `PhysMem::scrub` ≡ their per-granule models step for step; and the
#   known answers captured at the commit before them (key and signature
#   digests in `protocol_properties`, a 40-lifecycle churn's responses,
#   transcript, state and sealed image in `serve_restart`) — the oracles
#   any later change to snic-crypto or snic-mem leans on. Their speed is
#   not gated here: the benchmark's paired protocol decides that.
# - The request path (snic-telemetry `json`, snic-serve `protocol` and
#   `daemon`): the known answers of a 2 000-request data-plane run and
#   of 200 lines with 63 KiB string members, captured at the commit
#   before the borrowed reader (`serve_restart`); reader ≡ tree — one
#   grammar, two sinks, the same lookups and error texts on generated
#   lines (`request_reader_answers_as_the_tree_parser`); and the
#   allocation budget of a `send`/`poll`/`stats` line, an exact count
#   that may not grow with history (`serve_alloc_budget`) — the oracles
#   any later change to parsing, admission or rendering leans on.
echo "==> tier-1: cargo build --release && cargo test -q (budget ${budget}s per test binary)"
cargo build --release
budgeted_test

# The inline engine end to end: with one hardware thread in the budget
# no engine call starts a helper, so the differentials and every golden
# must hold on the path a single-core host (or a busy worker pool) runs.
echo "==> inline engine: engine_differential + streaming_differential + goldens under SNIC_SIM_THREADS=1"
SNIC_SIM_THREADS=1 budgeted_test -p snic-uarch --test engine_differential
SNIC_SIM_THREADS=1 budgeted_test -p snic-bench --test golden --test streaming_differential
SNIC_SIM_THREADS=1 budgeted_test -p snic --test serve_soak --test leakage_matrix

# Script demo: every line of scripts/demo.snic lowers onto snicd's verb
# table and is answered "ok":true (a refused line exits 3) — once as
# written (S-NIC) and once with its `nic` line switched to the commodity
# personality, which runs that device end to end through the one
# `NicMode::named` parse.
for mode in snic commodity; do
    echo "==> script demo (snicctl script scripts/demo.snic, nic $mode)"
    demo_out="$(sed "s/^nic snic/nic $mode/" scripts/demo.snic \
        | cargo run -q --release --bin snicctl -- script -)"
    if [ -z "$demo_out" ] || grep -qv '"ok":true' <<< "$demo_out"; then
        echo "FAIL: scripts/demo.snic (nic $mode) got a response that is not \"ok\":true:" >&2
        echo "$demo_out" >&2
        exit 1
    fi
done

# Pass 0 analyze gate: the six paper NFs must verify clean, every
# seeded adversarial corpus program must be rejected with its exact
# stable code, and the analyzer itself must fit the runtime budget —
# any drift (a code rename, a lowering change that trips the engine, a
# fixpoint slowdown) fails here.
echo "==> static analysis gate (snicctl analyze --gate)"
cargo run -q --release --bin snicctl -- analyze --gate > /dev/null

# snicd soak gate: the seeded ~30-simulated-second multi-tenant
# overload schedule with its mid-run fault plan. Non-faulted tenants
# must see zero failed requests, the faulted tenant's queue must be
# frozen and then reclaimed, Pass 4 must lint the serve transcript
# clean, and a snapshot/restart at the schedule midpoint must be
# byte-identical to the uninterrupted run. The summary is also pinned
# by tests/golden/soak.txt (re-bless with SNIC_BLESS=1).
echo "==> snicd soak gate (snicctl soak --gate)"
cargo run -q --release --bin snicctl -- soak --gate > /dev/null

# Covert-channel leakage gate: the smoke sweep (every family ×
# geometry × mode at the paper-default epoch) must diff clean against
# tests/golden/leakage.txt and satisfy the differential security
# bounds — every S-NIC cell's measured capacity under the hard ceiling,
# every exploitable commodity cell over the floor (re-bless the golden
# with SNIC_BLESS=1).
echo "==> covert-channel leakage gate (snicctl leakage --smoke --gate)"
cargo run -q --release --bin snicctl -- leakage --smoke --gate > /dev/null

# Telemetry overhead gate: recording the fig5 smoke sweep must stay
# within 10 percent wall clock of the sink-off run, with bit-identical
# outcomes.
echo "==> telemetry overhead budget (snicctl telemetry overhead)"
cargo run -q --release --bin snicctl -- telemetry overhead

# Bounded-memory streaming gate: the billion-event streamed colocation
# (48 personality-weighted tenants, diurnal/flash-crowd phase
# schedules) must first prove serial≡sharded bit-identity at small
# scale, then process exactly 1e9 engine events through O(chunk)
# streaming sources with peak RSS under SNIC_MEM_BUDGET_MB (default
# 64, about 3× the measured ≈ 15 — workers × the largest NF structure
# plus streaming state; independent of event count and of tenant
# count. LPM tenants holding the flat 64 MB tbl24 they model, ≈ 79,
# fail it, and so does the interleaved --shards 1 run, ≈ 75).
# SNIC_TRACE_GATE_EVENTS trims the run on slow machines.
echo "==> bounded-memory streaming gate (snicctl trace billion --gate)"
cargo run -q --release --bin snicctl -- trace billion --gate \
    ${SNIC_TRACE_GATE_EVENTS:+--events "$SNIC_TRACE_GATE_EVENTS"} > /dev/null

# Benchmark smoke: compiles the frozen `benchmark/` crate against the
# workspace — so breaking the API surface it consumes fails here, which
# tier-1 alone would not catch — and runs its correctness gates (digest
# equality across trials, exact event counts, serial ≡ sharded digest,
# socket response stream ≡ in-process replay). It judges no speed: perf
# regressions are decided by paired parent-vs-change runs
# (`benchmark/run.sh --compare N`), not a single-shot threshold below
# this host's noise floor.
#
# cargo rewrites the stale workspace edges in the frozen
# `benchmark/Cargo.lock` on every build; put the committed bytes back.
echo "==> benchmark smoke (benchmark/run.sh --smoke)"
lock_saved="$(mktemp)"
cp benchmark/Cargo.lock "$lock_saved"
smoke=0
bash benchmark/run.sh --smoke > /dev/null || smoke=$?
cp "$lock_saved" benchmark/Cargo.lock && rm -f "$lock_saved"
[ "$smoke" -eq 0 ] || exit "$smoke"

tree_after="$(git status --porcelain)"
if [ "$tree_before" != "$tree_after" ]; then
    echo "FAIL: the gate changed the working tree:" >&2
    diff <(echo "$tree_before") <(echo "$tree_after") >&2 || true
    exit 1
fi

echo "lint gate: OK"
