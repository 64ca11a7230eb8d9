#!/usr/bin/env bash
# Build (release) and run the coupled-pipeline benchmark from the root of
# a checkout, passing every argument through:
#
#   bash perfbench/run.sh --workload gts_pushdown --seed 1 --seconds 15 --trace 0
#
# Branches are kept from crossing or ending on a 32-byte boundary. On
# Intel cores with the JCC-erratum microcode such branches fall out of the
# decoded-instruction cache, so without this a hot loop's speed depends on
# where the linker happened to place it: two builds of identical source in
# different directories differed by ~17% in ctrl_small steps/s.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
export RUSTFLAGS="-C llvm-args=-x86-branches-within-32B-boundaries"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
