#!/usr/bin/env bash
# Paired repo-benchmark runs of one build against an anchor commit.
#
#   scripts/anchor_pairs.sh --anchor REV [--commit REV] [--pairs N] [--workload NAME]...
#
# Exports the anchor (and --commit, when given; otherwise the working tree
# is measured as it stands) with `git archive` into a temporary directory,
# builds each side's `benchmark` package in its own target directory, and
# runs `benchmark run --workload W --seed S --trace 0` at the default run
# length for seeds 1..N (N >= 6, default 10), alternating which side goes
# first from one pair to the next. Prints one JSON line per workload and
# end-to-end metric of BENCHMARK.json:
#
#   {"commit", "anchor", "workload", "metric", "commit_median",
#    "anchor_median", "ratio", "pairs", "seeds", "seconds", "nproc",
#    "commit_q1", "commit_q3", "anchor_q1", "anchor_q3", "commit_wins"}
#
# `ratio` is commit_median / anchor_median: 1 when both are 0, null when
# only the anchor's is. The quartiles (inclusive method) give each side's
# spread; `commit_wins` counts the seeds whose commit run beats the anchor
# run in the metric's `better` direction (a tie wins for neither). A
# metric a workload does not report is left out. A
# run whose record reports a failed operation or an incorrect result stops
# the script. Progress goes to stderr; the raw run records go to a
# temporary directory that is removed only when the lines were printed.
# The two sides never run at once, but the pairs are only as quiet as the
# host.
set -euo pipefail

anchor="" commit="" pairs=10 workloads=()
while (($#)); do
    case "$1" in
    --anchor) anchor=$2 ;;
    --commit) commit=$2 ;;
    --pairs) pairs=$2 ;;
    --workload) workloads+=("$2") ;;
    *) echo "anchor_pairs.sh: unknown argument $1" >&2; exit 2 ;;
    esac
    shift 2
done
[[ -n $anchor ]] || { echo "anchor_pairs.sh: --anchor REV is required" >&2; exit 2; }
((pairs >= 6)) || { echo "anchor_pairs.sh: at least 6 pairs" >&2; exit 2; }
((${#workloads[@]})) || workloads=(scan_native scan_udf array_cutout dml_mix)

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d) runs=$(mktemp -d)
# The run records outlive a failed summary; the trees and builds do not.
trap 'rm -rf "$tmp"; [[ -s $runs/done ]] && rm -rf "$runs"' EXIT

# Exports REV to DIR and prints its short name.
export_rev() {
    mkdir -p "$2"
    git -C "$root" archive "$1" | tar -x -C "$2"
    git -C "$root" rev-parse --short=7 "$1"
}

# Builds the benchmark package of tree DIR into TARGET.
build() {
    echo "building $1" >&2
    (cd "$1" && CARGO_TARGET_DIR=$2 cargo build --release --quiet \
        --manifest-path benchmark/Cargo.toml)
}

anchor_name=$(export_rev "$anchor" "$tmp/anchor")
build "$tmp/anchor" "$tmp/anchor-target"
if [[ -n $commit ]]; then
    commit_name=$(export_rev "$commit" "$tmp/commit")
    commit_tree=$tmp/commit
else
    commit_name=$(git -C "$root" describe --always --dirty --abbrev=7)
    commit_tree=$root
fi
build "$commit_tree" "$tmp/commit-target"

# Runs side SIDE (anchor|commit) of workload W at seed S and appends its
# record, the second-to-last line `benchmark run` prints (the last one is
# the record's `result` alone).
run() {
    local tree=$tmp/anchor
    [[ $1 == commit ]] && tree=$commit_tree
    echo "$2 seed $3: $1" >&2
    (cd "$tree" && "$tmp/$1-target/release/benchmark" run --workload "$2" --seed "$3" \
        --trace 0 --out "$tmp/out-$1") | tail -n 2 | head -n 1 >>"$runs/$1-$2.jsonl"
}

for w in "${workloads[@]}"; do
    for ((s = 1; s <= pairs; s++)); do
        if ((s % 2)); then run anchor "$w" "$s"; run commit "$w" "$s"
        else run commit "$w" "$s"; run anchor "$w" "$s"; fi
    done
done

echo "run records: $runs" >&2
python3 - "$runs" "$root/BENCHMARK.json" "$commit_name" "$anchor_name" "$pairs" "$(nproc)" \
    "${workloads[@]}" <<'PY'
import json, statistics, sys

runs, manifest, commit, anchor, pairs, nproc, *workloads = sys.argv[1:]
better = {m["name"]: m["better"] for m in json.load(open(manifest))["end_to_end"]}

def records(side, w):
    out = [json.loads(line) for line in open(f"{runs}/{side}-{w}.jsonl")]
    for r in out:
        res = r["result"]
        if not res["correct"] or res["failed"]:
            sys.exit(f"{side} {w} seed {r['seed']}: {res['failed']} failed, correct={res['correct']}")
    return out

for w in workloads:
    by_side = {side: records(side, w) for side in ("commit", "anchor")}
    for m in (m for m in better if all(m in r["result"]["metrics"] for r in by_side["commit"])):
        vals = {
            side: {r["seed"]: r["result"]["metrics"][m]["value"] for r in rs}
            for side, rs in by_side.items()
        }
        med = {side: statistics.median(v.values()) for side, v in vals.items()}
        quart = {
            side: statistics.quantiles(v.values(), n=4, method="inclusive")
            for side, v in vals.items()
        }
        sign = 1 if better[m] == "higher" else -1
        wins = sum(sign * (c - vals["anchor"][s]) > 0 for s, c in vals["commit"].items())
        print(json.dumps({
            "commit": commit, "anchor": anchor, "workload": w, "metric": m,
            "commit_median": med["commit"], "anchor_median": med["anchor"],
            "ratio": med["commit"] / med["anchor"] if med["anchor"] else 1.0 if med["commit"] == 0 else None,
            "pairs": int(pairs), "seeds": [r["seed"] for r in by_side["commit"]],
            "seconds": by_side["commit"][0]["seconds"], "nproc": int(nproc),
            "commit_q1": quart["commit"][0], "commit_q3": quart["commit"][2],
            "anchor_q1": quart["anchor"][0], "anchor_q3": quart["anchor"][2],
            "commit_wins": wins,
        }))
PY
echo done >"$runs/done"
