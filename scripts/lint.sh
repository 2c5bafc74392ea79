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
# benchmark/src, and nowhere in its own file's non-test code outside
# its declaration line and the `impl` blocks of the type it names (so a
# struct only its own constructor and methods mention is listed). An
# `impl` block runs from its header to the first line that closes it at
# the header's indentation, as rustfmt writes it. Comment lines and
# `pub use` re-exports do not count as naming it. A name that also
# occurs elsewhere passes, so this is a floor, not a proof. The
# allowlist is empty: delete the item with its test, or move it into
# the test module when it is a probe a test relies on.
echo "==> inventory: pub items nothing names"
mapfile -t rust_files < <(find crates src tests examples benchmark/src -name '*.rs' | sort)
orphans="$(awk '
# The type an `impl` header is for: the last path segment after ` for `
# if there is one, else after `impl` and its generic parameters.
function impl_self(h,    i, c, depth) {
    sub(/^[ \t]*(unsafe )?impl/, "", h)
    if (substr(h, 1, 1) == "<") {
        for (i = 1; i <= length(h); i++) {
            c = substr(h, i, 1)
            if (c == "-" && substr(h, i + 1, 1) == ">") i++
            else if (c == "<") depth++
            else if (c == ">" && --depth == 0) break
        }
        h = substr(h, i + 1)
    }
    while (match(h, / for /)) h = substr(h, RSTART + RLENGTH)
    sub(/^[ \t]*(&(\047[a-z_]+ )?)?(mut |dyn )?/, "", h)
    match(h, /^[A-Za-z_][A-Za-z0-9_:]*/)
    h = substr(h, 1, RLENGTH)
    sub(/.*::/, "", h)
    return h
}
FNR == 1 { live = 1; in_impl = 0 }
live && /#\[cfg\(test\)\]/ { live = 0 }
live && !in_impl && /^[ \t]*(unsafe )?impl[ <]/ {
    in_impl = 1; impl_line = FNR; self = impl_self($0)
    match($0, /^[ \t]*/); impl_end = substr($0, 1, RLENGTH) "}"
}
{ decl_name = "" }
live && FILENAME ~ /^crates\/[^\/]+\/src\// &&
    match($0, /^[ \t]*pub (const |unsafe |async )*(fn|struct|enum|trait|const|type|static) +(mut +)?[A-Za-z_][A-Za-z0-9_]*/) {
    n = split(substr($0, RSTART, RLENGTH), decl, /[ \t]+/)
    decl_name = decl[n]
    item[FILENAME SUBSEP decl_name] = FNR
}
!/^[ \t]*(\/\/|pub use )/ {
    rest = $0
    while (match(rest, /[A-Za-z_][A-Za-z0-9_]*/)) {
        word = substr(rest, RSTART, RLENGTH)
        if (!((word, FILENAME) in seen)) { seen[word, FILENAME] = 1; files[word]++ }
        if (word == decl_name) decl_name = ""
        else if (live && !(in_impl && word == self)) own[word, FILENAME]++
        rest = substr(rest, RSTART + RLENGTH)
    }
}
in_impl && ((FNR == impl_line && /\}[ \t]*$/) || (FNR > impl_line && $0 == impl_end)) { in_impl = 0 }
END {
    for (k in item) {
        split(k, at, SUBSEP)
        if (files[at[2]] == 1 && !own[at[2], at[1]]) print at[1] ":" item[k] ": " at[2]
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
#   snic-nf): headers-only frames are prefixes of full frames, a packet
#   slot rewritten in place is the owned frame and spares a kept clone
#   (`a_slot_rewritten_in_place_is_the_owned_frame`), no
#   header-only NF reads a payload, the bulk DIR-24-8 build equals
#   ordered inserts, the frozen Aho-Corasick walk records what its
#   node-walk oracle records (`frozen_walk_equals_the_oracle`), and the
#   DPI recordings hold their pinned digests at quick and paper scale
#   (`dpi_stream_digests_are_pinned`).
# - Fault-matrix smoke (`fault_determinism`): the blast-radius
#   differential must be deterministic regardless of executor
#   parallelism.
# - Golden snapshots (`golden`): every `snicctl exp` registry entry's
#   text at the pinned golden scale must match its checked-in
#   `<name>.txt` byte for byte, and the golden directory may hold no
#   other files (regenerate intentionally with SNIC_BLESS=1).
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
# - The device op driver (`tests/op_driver/`, run by `device_properties`,
#   `isolation_properties` and `lifecycle_properties`): random op sequences —
#   launches hinted and unhinted, packets in and out, DMA, accelerator
#   and bus ops, crashes, power loss mid-scrub, power cycles, the clock —
#   run against both personalities, and `SmartNic::check` (each plane's
#   §4 clauses plus the ones that span planes) must hold after every op.
#   It is the general killer of the crash-log, ring-lap and hinted-launch
#   mutants listed in CHANGES.md.
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
# - The recording's footprint (`record_footprint`, its own test binary
#   under a counting allocator): recording DPI makes one allocation as
#   large as the trace, exactly the shared `Arc`'s, and the recording
#   thread's live bytes never exceed the trace, its packets and a fixed
#   slack — the eager recorder writes each event once, in place.
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
# The goldens include `replay_grid_digests_are_pinned`, the benchmark's
# replay_fig5 grid (events and folded outcome digest at two seeds, fronts
# inline and on a helper); the differential's literal traces draw
# instruction counts near u32::MAX and addresses up to 2^40 - 1, which
# hold the front's instruction sums, its hit-run carry across chunks and
# batches and its position/address packing to the reference.
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

# snicd soak gate (`exp soak`): the seeded ~30-simulated-second
# multi-tenant overload schedule with its mid-run fault plan.
# Non-faulted tenants must see zero failed requests, the faulted
# tenant's queue must be frozen and then reclaimed, Pass 4 must lint the
# serve transcript clean, and snapshot/restarts at a third, half and two
# thirds of the schedule must be byte-identical to the uninterrupted
# run; any miss exits 12. Its text is the `soak` golden, which tier-1
# diffs.
echo "==> snicd soak gate (snicctl exp soak)"
target/release/snicctl exp soak > /dev/null

# Covert-channel leakage gate (`exp leakage`): the full 72-cell sweep
# (every family × geometry × epoch × mode) must satisfy the differential
# security bounds — every S-NIC cell's measured capacity under the hard
# ceiling, every exploitable commodity cell and at least one commodity
# cell of each family over the floor — or it exits 12. Its text is the
# `leakage` golden, which tier-1 diffs (and again under
# SNIC_SIM_THREADS=1 above).
echo "==> covert-channel leakage gate (snicctl exp leakage)"
target/release/snicctl exp leakage > /dev/null

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
# SNIC_TRACE_GATE_EVENTS trims the run on slow machines. The run's
# summary line (wall, events/s, peak RSS, digest) is printed; at the
# default 10^9 events its digest must be the pinned 5ce8b2a952c1f16b,
# which a trimmed run cannot reach, so a trimmed run skips that check.
echo "==> bounded-memory streaming gate (snicctl trace billion --gate)"
billion_out="$(cargo run -q --release --bin snicctl -- trace billion --gate \
    ${SNIC_TRACE_GATE_EVENTS:+--events "$SNIC_TRACE_GATE_EVENTS"})"
billion_summary="$(grep '^billion-event streamed run:' <<< "$billion_out" || true)"
echo "    $billion_summary"
if [ -z "${SNIC_TRACE_GATE_EVENTS:-}" ] && [[ "$billion_summary" != *" digest=5ce8b2a952c1f16b" ]]; then
    echo "FAIL: the 10^9-event streamed run's digest is not the pinned 5ce8b2a952c1f16b:" >&2
    echo "$billion_out" >&2
    exit 1
fi

# Paper scale: every `_full` golden, crates/bench/tests/golden/<name>_full.txt,
# must match `snicctl exp <name> --full` byte for byte (today fig5a and
# fig5b). They take minutes each, so tier-1 does not run them. The
# release binary runs directly, so the wall time printed excludes cargo;
# beside it goes the process's peak resident set (`VmHWM`), read from
# /proc/<pid>/status until it exits. The peak has a ceiling: the highest
# measured with 13-byte events (474 428 KiB, fig5a) plus 10 %, the
# benchmark's memory bound. Almost all of it is the recordings, so a
# recording held twice or an event grown back to 16 bytes fails here. No
# wall budget is enforced yet, since the target (under 60 s each on a
# 2-thread host) is not met.
hwm_ceiling_mib=509
for golden in crates/bench/tests/golden/*_full.txt; do
    fig="$(basename "$golden" _full.txt)"
    echo "==> paper-scale $fig (snicctl exp $fig --full against $golden)"
    start="$EPOCHREALTIME"
    target/release/snicctl exp "$fig" --full > "$test_log" &
    pid=$!
    hwm_kib=0
    while kill -0 "$pid" 2> /dev/null; do
        # An exiting process's status has no VmHWM line: keep the last.
        kib="$(awk '/^VmHWM:/ { print $2 }' "/proc/$pid/status" 2> /dev/null || true)"
        if [ -n "$kib" ]; then hwm_kib="$kib"; fi
        sleep 0.2
    done
    wait "$pid"
    echo "    wall: $(awk -v a="$start" -v b="$EPOCHREALTIME" 'BEGIN { printf "%.1f s", b - a }'), VmHWM: $((hwm_kib / 1024)) MiB (ceiling ${hwm_ceiling_mib} MiB)"
    if ! diff -u "$golden" "$test_log" >&2; then
        echo "FAIL: snicctl exp $fig --full differs from $golden" >&2
        exit 1
    fi
    if [ "$hwm_kib" -eq 0 ] || [ $((hwm_kib / 1024)) -gt "$hwm_ceiling_mib" ]; then
        echo "FAIL: snicctl exp $fig --full peaked at $((hwm_kib / 1024)) MiB (VmHWM; 0 = never read), ceiling ${hwm_ceiling_mib} MiB" >&2
        exit 1
    fi
done

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
