#!/usr/bin/env bash
# The benchmark's entry point. Builds `snicd` (root package) and the
# benchmark (this directory's own package) in release mode, then runs the
# benchmark from the repo root with the arguments given:
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh [--traced | --smoke | --compare N [--vary-seed]] [--record]
#
# Build output goes to stderr; the last line of stdout of a single run is
# its result object. See benchmark/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."

# The benchmark measures the repository around it; without that there is
# nothing to build or run.
if [ ! -f Cargo.toml ] || [ ! -d crates ]; then
    echo "benchmark/run.sh: no repository around benchmark/ (need Cargo.toml and crates/)" >&2
    exit 3
fi

# One target directory for both packages (the caller's, if it set one).
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

cargo build --release --offline --bin snicd >&2
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2

export SNICD_BIN="$CARGO_TARGET_DIR/release/snicd"
exec "$CARGO_TARGET_DIR/release/snic-benchmark" "$@"
