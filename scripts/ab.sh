#!/usr/bin/env bash
# Same-host A/B of the end-to-end benchmark: BASE's perfbench against
# the working tree's, in interleaved pairs, with a verdict per metric.
#
#   scripts/ab.sh [--smoke] [--trace] BASE [WORKLOAD...]
#
# BASE is any commit that has perfbench/ (a hash, a branch, HEAD~1).
# It is checked out with `git worktree` into a temporary directory and
# built there with its own target directory; the working tree's
# perfbench is built separately. Both are removed on every exit,
# interrupted or not. WORKLOAD defaults to every workload in
# BENCHMARK.json.
#
# Each workload runs as 10 pairs on seeds 1-10, each run lasting
# BENCHMARK.json's `run_seconds`. Odd seeds run the parent (BASE) first,
# even seeds the change, so drift of the host's speed during a session
# falls on both sides alike. Then, for every end-to-end metric, it
# prints each side's median and q1-q3, the wins (pairs in which the
# change was better; a tie counts for neither side), the change/parent
# ratio of the medians, and a verdict:
#
#   gain        the change won at least 9 of 10 pairs and its median moved
#               the right way by more than the parent's q3 - q1
#   REGRESSION  the change's median is worse than the parent's by more
#               than both the metric's BENCHMARK.json bound (a fraction of
#               the parent's median) and the parent's q3 - q1
#   unresolved  the parent's q3 - q1 is wider than the bound, so this host
#               cannot tell a change within the bound from noise (unless
#               every run of the change beat every run of the parent)
#   ok          none of the above
#
# It also prints failed/attempted operations for each side. It exits 1
# when a run is not `correct: true`, when the change fails a larger
# share of its operations than the parent, or when a verdict reads
# REGRESSION; 2 on a usage or build error; 0 otherwise.
#
#   --smoke  1 pair of 1 s per workload; gates only on correctness and
#            on the builds (CI runs `scripts/ab.sh --smoke HEAD`)
#   --trace  runs perfbench with `--trace 1` and tabulates every
#            per-layer metric side by side, with no verdict
#
# Needs git, cargo and python3. Run it on an otherwise idle host: other
# load moves the numbers.
set -euo pipefail

cd "$(dirname "$0")/.."

usage() {
    echo "usage: scripts/ab.sh [--smoke] [--trace] BASE [WORKLOAD...] (see its header)" >&2
    exit 2
}

smoke=0
trace=0
base=""
workloads=()
for arg in "$@"; do
    case "$arg" in
        --smoke) smoke=1 ;;
        --trace) trace=1 ;;
        -*) echo "ab.sh: unknown flag $arg" >&2; usage ;;
        *)
            if [[ -z "$base" ]]; then base="$arg"; else workloads+=("$arg"); fi
            ;;
    esac
done
[[ -n "$base" ]] || usage

# Workload names and the run length come from BENCHMARK.json.
read -r run_seconds all_workloads < <(python3 -c '
import json
b = json.load(open("BENCHMARK.json"))
print(b["run_seconds"], " ".join(w["name"] for w in b["workloads"]))')
if [[ ${#workloads[@]} -eq 0 ]]; then
    read -r -a workloads <<<"$all_workloads"
fi
for w in "${workloads[@]}"; do
    if [[ " $all_workloads " != *" $w "* ]]; then
        echo "ab.sh: unknown workload $w (BENCHMARK.json has: $all_workloads)" >&2
        exit 2
    fi
done
pairs=10
seconds=$run_seconds
if [[ $smoke -eq 1 ]]; then
    pairs=1
    seconds=1
fi

if ! base_rev=$(git rev-parse --verify --quiet "$base^{commit}"); then
    echo "ab.sh: $base is not a commit" >&2
    exit 2
fi
if ! git cat-file -e "$base_rev:perfbench/Cargo.toml" 2>/dev/null; then
    echo "ab.sh: $base has no perfbench/, so there is nothing to compare against" >&2
    exit 2
fi

tmp=$(mktemp -d)
cleanup() {
    git worktree remove --force "$tmp/base" >/dev/null 2>&1 || true
    git worktree prune
    rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

# Builds the perfbench package at $1 and prints its executable's path.
build() {
    cargo build --release --offline --quiet --manifest-path "$1/perfbench/Cargo.toml" \
        --message-format=json-render-diagnostics | python3 -c '
import json, sys
for line in sys.stdin:
    msg = json.loads(line)
    if msg.get("reason") == "compiler-artifact" and msg.get("executable"):
        print(msg["executable"])'
}

echo "# ab.sh: building $base ($base_rev) and the working tree" >&2
git worktree add --detach --quiet "$tmp/base" "$base_rev"
if ! base_bin=$(CARGO_TARGET_DIR="$tmp/target" build "$tmp/base") || [[ -z "$base_bin" ]]; then
    echo "ab.sh: building perfbench at $base failed" >&2
    exit 2
fi
if ! change_bin=$(build .) || [[ -z "$change_bin" ]]; then
    echo "ab.sh: building the working tree's perfbench failed" >&2
    exit 2
fi

# Runs one side of one pair; the result object is the last line of
# standard output.
run() { # side bin workload seed
    local out="$tmp/runs/$3.$4.$1"
    "$2" --workload "$3" --seed "$4" --seconds "$seconds" --trace "$trace" \
        >"$out.out" 2>"$out.err" || true
    tail -n 1 "$out.out" >"$out.json"
}

mkdir -p "$tmp/runs"
for w in "${workloads[@]}"; do
    for ((seed = 1; seed <= pairs; seed++)); do
        echo "# ab.sh: $w seed $seed/$pairs" >&2
        if ((seed % 2)); then
            run parent "$base_bin" "$w" "$seed"
            run change "$change_bin" "$w" "$seed"
        else
            run change "$change_bin" "$w" "$seed"
            run parent "$base_bin" "$w" "$seed"
        fi
    done
done

python3 - "$tmp/runs" "$pairs" "$seconds" "$smoke" "$trace" "$base" "${workloads[@]}" <<'EOF'
import json
import math
import sys

runs, pairs, seconds, smoke, trace, base = sys.argv[1:7]
workloads = sys.argv[7:]
pairs, smoke, trace = int(pairs), smoke == "1", trace == "1"
bench = json.load(open("BENCHMARK.json"))
metrics = bench["per_layer"] if trace else bench["end_to_end"]


def load(w, seed, side):
    try:
        return json.loads(open(f"{runs}/{w}.{seed}.{side}.json").read())
    except (OSError, ValueError):
        return None


def why(w, seed, side):
    try:
        lines = open(f"{runs}/{w}.{seed}.{side}.err").read().splitlines()
    except OSError:
        lines = []
    return "; ".join(lines[-3:]) or "no output"


def quantile(xs, q):
    """Linear interpolation between closest ranks."""
    xs = sorted(xs)
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def fmt(v):
    if abs(v) >= 1e4:
        return f"{v:,.0f}"
    return f"{v:.4g}"


def spread(xs):
    return f"{fmt(quantile(xs, 0.5))} [{fmt(quantile(xs, 0.25))}–{fmt(quantile(xs, 0.75))}]"


failures = []
need_wins = math.ceil(0.9 * pairs)
print(f"# ab.sh: parent {base} vs working tree, {pairs} pair(s) × {seconds} s per workload")
for w in workloads:
    results = {side: [load(w, s, side) for s in range(1, pairs + 1)] for side in ("parent", "change")}
    print(f"\n## {w}\n")
    bad = [
        f"{w} seed {seed} {side}: run not correct ({why(w, seed, side)})"
        for side, rs in results.items()
        for seed, r in enumerate(rs, 1)
        if r is None or r.get("correct") is not True
    ]
    if bad:
        print("(no table: not every run was correct)")
        failures += bad
        continue
    header = "| metric | unit | parent median [q1–q3] | change median [q1–q3] | wins | change/parent |"
    print(header + ("" if trace else " verdict |"))
    print("|---" * (header.count("|") - 1 + (0 if trace else 1)) + "|")
    for m in metrics:
        name, better = m["name"], m["better"]
        if any(name not in r["metrics"] for rs in results.values() for r in rs):
            print(f"| {name} | {m['unit']} | not reported by both sides |")
            continue
        p = [r["metrics"][name]["value"] for r in results["parent"]]
        c = [r["metrics"][name]["value"] for r in results["change"]]
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (cv - pv) > 0 for pv, cv in zip(p, c))
        pm, cm = quantile(p, 0.5), quantile(c, 0.5)
        iqr = quantile(p, 0.75) - quantile(p, 0.25)
        ratio = f"{cm / pm:.3f}" if pm else "–"
        row = f"| {name} | {m['unit']} | {spread(p)} | {spread(c)} | {wins}/{pairs} | {ratio} |"
        if trace:
            print(row)
            continue
        gain_by = sign * (cm - pm)
        bound = m["bound"] * abs(pm)
        if smoke:
            verdict = "–"
        elif wins >= need_wins and gain_by > iqr:
            verdict = "gain"
        elif -gain_by > bound and -gain_by > iqr:
            verdict = "REGRESSION"
            failures.append(f"{w} {name}: REGRESSION ({fmt(pm)} -> {fmt(cm)})")
        elif iqr > bound and not all(sign * (cv - pv) > 0 for cv in c for pv in p):
            verdict = "unresolved"
        else:
            verdict = "ok"
        print(f"{row} {verdict} |")
    share = {}
    for side, rs in results.items():
        failed = sum(r["failed"] for r in rs)
        attempted = sum(r["attempted"] for r in rs)
        share[side] = failed / max(attempted, 1)
        print(f"\n{side} failed/attempted: {failed}/{attempted}", end="")
    print()
    if share["change"] > share["parent"]:
        failures.append(f"{w}: the change fails a larger share of operations than the parent")

if failures:
    print("\nab.sh: FAILED", file=sys.stderr)
    for f in failures:
        print(f"  {f}", file=sys.stderr)
    sys.exit(1)
EOF
