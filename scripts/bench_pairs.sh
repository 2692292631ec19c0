#!/usr/bin/env bash
# bench_pairs.sh — runs the end-to-end benchmark (bench/run.sh) on the
# working tree and on BASE in alternating pairs, then summarizes both
# sides, so a claimed gain can be read off paired runs on one host.
#
# Usage:
#   scripts/bench_pairs.sh <workload> <seed> [pairs] [metric]
#
#   <workload>  a BENCHMARK.json workload, e.g. synthetic-avg
#   <seed>      the uubench seed
#   [pairs]     number of BASE/change pairs (default 10)
#   [metric]    the end-to-end metric whose wins are counted (default
#               op_p50_ms); its direction comes from BENCHMARK.json
#
# Environment:
#   BASE  the revision compared against (default HEAD, which measures
#         uncommitted changes against their parent; use HEAD~1 for a
#         committed change)
#
# Every run lasts 20 s (`--seconds 20`), the run length BENCHMARK.json's
# bounds are judged at.
#
# BASE is extracted with `git archive` into .bench_build/pairs/base and
# built by its own bench/run.sh, which keeps its binary and build cache
# under that copy; the working tree's run.sh keeps its own under
# .bench_build. Nothing is written under bench/. Pair i runs BASE first
# when i is odd and the change first when i is even. Each run's summary
# line is printed as it finishes; a run that answers wrongly stops the
# script. At the end the script prints, for every end-to-end metric, each
# side's median and q1-q3 (the (n+1)/4 method of uubench's `quartiles`,
# which `-repeat` and the BENCHMARK.json spreads use), each side's failed
# and attempted operations, and how many pairs the change won on [metric].
# Wins do not count as a gain when the change fails a larger share of
# operations than BASE; the script says so when it does.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
root="$(pwd)"

if [ $# -lt 2 ]; then
    echo "usage: $0 <workload> <seed> [pairs] [metric]" >&2
    exit 2
fi
workload="$1"
seed="$2"
pairs="${3:-10}"
metric="${4:-op_p50_ms}"
base="${BASE:-HEAD}"

# Only the end_to_end block: per-layer metrics are not printed under --trace 0.
better="$(sed -n '/"end_to_end"/,/\]/p' BENCHMARK.json |
    grep -o "\"name\": \"$metric\"[^}]*\"better\": \"[a-z]*\"" |
    sed 's/.*"better": "\([a-z]*\)"/\1/' || true)"
if [ -z "$better" ]; then
    echo "bench-pairs: $metric is not an end-to-end metric of BENCHMARK.json" >&2
    exit 2
fi

work="$root/.bench_build/pairs"
rev="$(git rev-parse "$base^{commit}")"
mkdir -p "$work/base"
if [ "$(cat "$work/base.rev" 2>/dev/null)" != "$rev" ]; then
    # Keep the copy's .bench_build (its Go build cache) across revisions.
    find "$work/base" -mindepth 1 -maxdepth 1 ! -name .bench_build -exec rm -rf {} +
    git archive "$rev" | tar -x -C "$work/base"
    echo "$rev" >"$work/base.rev"
fi

runs="$work/runs.txt"
ops="$work/ops.txt"
: >"$runs"
: >"$ops"

# run SIDE PAIR DIR runs DIR/bench/run.sh once and records its metrics as
# "side pair metric value" lines in $runs and its operation counts as
# "side attempted failed" lines in $ops.
run() {
    local side="$1" pair="$2" dir="$3" out line
    out="$(bash "$dir/bench/run.sh" --workload "$workload" --seed "$seed" --seconds 20 --trace 0)"
    line="$(grep '^{' <<<"$out")"
    echo "pair $pair $side: $line"
    awk -v side="$side" -v pair="$pair" -v w="$workload" '$1 == w && NF == 4 { print side, pair, $2, $4 }' <<<"$out" >>"$runs"
    echo "$side $(grep -o '"attempted":[0-9]*' <<<"$line" | cut -d: -f2) $(grep -o '"failed":[0-9]*' <<<"$line" | cut -d: -f2)" >>"$ops"
}

echo "bench-pairs: $workload seed $seed, $pairs pairs of 20s, BASE $(git rev-parse --short "$rev") vs working tree"
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2 == 1)); then
        run base "$i" "$work/base"
        run change "$i" "$root"
    else
        run change "$i" "$root"
        run base "$i" "$work/base"
    fi
done

echo
printf '%-12s %-6s %12s %12s %12s\n' metric side median q1 q3
for m in $(awk '{ print $3 }' "$runs" | sort -u); do
    for side in base change; do
        awk -v s="$side" -v m="$m" '$1 == s && $3 == m { print $4 }' "$runs" | sort -g | awk -v m="$m" -v s="$side" '
            { v[NR] = $1 }
            # q(i) is the i-th quartile by the (n+1)/4 method.
            function q(i,   n1, j, d) {
                if (NR == 1) return v[1]
                n1 = NR + 1
                j = int(i * n1 / 4)
                if (j < 1) j = 1
                else if (j > NR - 1) j = NR - 1
                d = i * n1 - j * 4
                return (v[j] * (4 - d) + v[j + 1] * d) / 4
            }
            END { if (NR) printf "%-12s %-6s %12.6g %12.6g %12.6g\n", m, s, q(2), q(1), q(3) }'
    done
done

awk -v m="$metric" -v better="$better" '
    $3 == m { val[$1, $2] = $4; seen[$2] = 1 }
    END {
        for (p in seen) {
            n++
            d = val["change", p] - val["base", p]
            if ((better == "lower" && d < 0) || (better == "higher" && d > 0)) wins++
        }
        printf "\nchange won %d/%d pairs on %s (%s is better)\n", wins, n, m, better
    }' "$runs"

echo
awk '
    { att[$1] += $2; fail[$1] += $3 }
    END {
        split("base change", sides, " ")
        for (i = 1; i <= 2; i++) {
            s = sides[i]
            share[s] = att[s] ? fail[s] / att[s] : 0
            printf "%-6s failed %d of %d operations (%.4g%%)\n", s, fail[s], att[s], 100 * share[s]
        }
        if (share["change"] > share["base"])
            print "the change fails a larger share of operations than BASE: its wins are no gain"
    }' "$ops"
