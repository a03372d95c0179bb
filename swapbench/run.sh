#!/usr/bin/env bash
# Builds the experiment binaries and swapbench into one target directory,
# then runs swapbench from the repository root with the given arguments:
#
#   bash swapbench/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
#
# The target directory is $CARGO_TARGET_DIR (a relative path is taken from
# the current directory) or, when unset, the repository's `target/`.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [[ ! -f "$root/Cargo.toml" || ! -d "$root/crates/experiments" ]]; then
    echo "swapbench: $root holds no SwapRAM workspace (Cargo.toml, crates/experiments)" >&2
    exit 2
fi

target="${CARGO_TARGET_DIR:-$root/target}"
[[ "$target" = /* ]] || target="$PWD/$target"
export CARGO_TARGET_DIR="$target"

cargo build --offline --release --quiet --manifest-path "$root/Cargo.toml" \
    -p experiments --bin all --bin campaign
cargo build --offline --release --quiet --manifest-path "$here/Cargo.toml"

cd "$root"
exec "$target/release/swapbench" "$@"
