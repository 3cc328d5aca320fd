#!/usr/bin/env bash
# Same-runner wall-clock guard for the quick experiment suite.
#
# Builds `experiments` at HEAD^1 and at HEAD, runs `--quick --threads 1`
# in three alternated pairs (base first in each pair), and fails when HEAD's
# median `total_seconds` exceeds 1.25x the base median. On a pull request
# the checkout is the merge commit, so HEAD^1 is the base branch tip; on a
# push it is the previous commit. Both sides run on one host, so a slower
# runner slows both.
#
# The base builds into a target directory of its own. Cargo keys a
# workspace member's artifacts by its path inside the workspace and judges
# them fresh by file times, so two trees sharing one target directory can
# each find the other's binary up to date.
#
# Usage: .github/scripts/wall_clock_vs_base.sh
# Needs git history two commits deep, cargo and jq.
set -euo pipefail

root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

mkdir "$work/base"
git -C "$root" archive HEAD^1 | tar -x -C "$work/base"
build() {
    cargo build --release -p ansmet-bench --bin experiments \
        --manifest-path "$1/Cargo.toml" --target-dir "$2"
}
build "$work/base" "$work/target"
cp "$work/target/release/experiments" "$work/experiments.base"
build "$root" "$root/target"
cp "$root/target/release/experiments" "$work/experiments.head"

for i in 1 2 3; do
    for side in base head; do
        dir="$work/run-$i-$side"
        mkdir "$dir"
        # Run outside the checkout: the suite writes its artifacts to the
        # working directory.
        (cd "$dir" && "$work/experiments.$side" --quick --threads 1 --json timing.json \
            >/dev/null 2>&1)
        secs=$(jq -r '.total_seconds' "$dir/timing.json")
        echo "pair $i $side: ${secs}s"
        echo "$secs" >>"$work/$side.txt"
    done
done

median() {
    sort -g "$1" | awk '{ v[NR] = $1 } END { print (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2 }'
}
base=$(median "$work/base.txt")
head=$(median "$work/head.txt")
jq -en --argjson base "$base" --argjson head "$head" \
    'if $head <= $base * 1.25 then "ok: median \($head)s vs base \($base)s"
     else error("quick suite median \($head)s, > 25% over the base commit median \($base)s") end'
