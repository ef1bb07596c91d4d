#!/usr/bin/env bash
# Paired A/B runs of the repo benchmark: a base revision against the
# working tree.
#
# Usage: scripts/ab.sh <base-rev> [workload ...] [--pairs N] [--seed S[,S...]]
#        (workloads default to all four; N defaults to 10; S to 1; a
#        comma list such as --seed 1,97 runs every seed in one call)
#
# 1. Exports <base-rev> with `git archive` into build/ab/base-src (the
#    repository's .git is left untouched) and builds each side's beebench
#    once, the base into build/ab/base and the working tree into
#    build/ab/change (perfbench/run.py's CARGO_TARGET_DIR).
#    Each invocation keeps its run records in a directory of its own,
#    build/ab/runs/<UTC stamp>-<pid>/ (printed on stderr): per side,
#    workload and seed one file of JSON result lines in pair order, and
#    one stderr log per run. Earlier invocations' directories are kept.
# 2. Runs each side's own `perfbench/run.py --workload <w> --seed S
#    --seconds <run_seconds of BENCHMARK.json> --trace 0` in alternating
#    pairs: the base first in odd pairs, the change first in even ones.
#    perfbench/ and BENCHMARK.json are read, never written.
# 3. Prints, per workload and end-to-end metric of BENCHMARK.json, the
#    base median [Q1, Q3], the change median [Q1, Q3], the change of the
#    median in %, the pairs the change won, the bound and a verdict:
#      regression    the change's median is worse than the base's by more
#                    than the bound, and the base's IQR (as a fraction of
#                    its median) is narrower than the bound;
#      unresolved    the base's IQR is wider than the bound, so these
#                    runs cannot resolve a change of that size, unless
#                    every change run reads better than every base run;
#      within bound  anything else.
#    Then each side's runs in pair order. With several seeds, each seed
#    gets its own header, tables and verdicts, in the order given.
# 4. Prints one JSON summary line last, with the run directory, relative
#    to the repository root, as "runs_dir". With one seed it carries that
#    seed's verdicts at the top level; with several, "seeds" lists them
#    and "per_seed" holds each seed's regressions, unresolved metrics,
#    failed runs and ok flag, and the top-level "ok" is their conjunction.
#    Each seed's "numbers" give, per workload and end-to-end metric, the
#    base and change medians and IQRs (Q3 - Q1), in the metric's unit.
#
# Exits 1 on any regression or on a run that fails or reports failed
# operations, under any seed, and 2 on bad arguments.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
usage() {
  echo "usage: scripts/ab.sh <base-rev> [workload ...] [--pairs N] [--seed S[,S...]]" >&2
  exit 2
}

base_rev=""
workloads=()
pairs=10
seed=1
while [ $# -gt 0 ]; do
  case "$1" in
    --pairs) [ $# -ge 2 ] || usage; pairs="$2"; shift 2 ;;
    --pairs=*) pairs="${1#*=}"; shift ;;
    --seed) [ $# -ge 2 ] || usage; seed="$2"; shift 2 ;;
    --seed=*) seed="${1#*=}"; shift ;;
    -*) usage ;;
    *) if [ -z "$base_rev" ]; then base_rev="$1"; else workloads+=("$1"); fi
       shift ;;
  esac
done
[ -n "$base_rev" ] || usage
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || usage
[[ "$seed" =~ ^[0-9]+(,[0-9]+)*$ ]] || usage
IFS=, read -r -a seeds <<< "$seed"
if [ ${#workloads[@]} -eq 0 ]; then
  workloads=(fleet_campaign serve_hot serve_cold queen_detect)
fi
for w in "${workloads[@]}"; do
  case "$w" in
    fleet_campaign|serve_hot|serve_cold|queen_detect) ;;
    *) echo "ab.sh: unknown workload: $w" >&2; exit 2 ;;
  esac
done

base_sha="$(git -C "$repo" rev-parse --verify "$base_rev^{commit}")" || usage
seconds="$(python3 -c 'import json, sys
print(json.load(open(sys.argv[1]))["run_seconds"])' "$repo/BENCHMARK.json")"

ab="$repo/build/ab"
base_src="$ab/base-src"
runs_dir="build/ab/runs/$(date -u +%Y%m%dT%H%M%SZ)-$$"
runs="$repo/$runs_dir"
mkdir -p "$runs"
echo "== run records in $runs_dir ==" >&2
# Re-export only for a new base, so its build stays up to date.
if [ "$(cat "$base_src/.ab-rev" 2> /dev/null)" != "$base_sha" ]; then
  rm -rf "$base_src" "$ab/base"
  mkdir -p "$base_src"
  git -C "$repo" archive "$base_sha" | tar -x -C "$base_src"
  echo "$base_sha" > "$base_src/.ab-rev"
fi

# The same configure and build perfbench/run.py does, once per side, so
# every timed run finds its beebench up to date.
build_side() {
  local src="$1" dir="$2"
  if [ ! -f "$dir/CMakeCache.txt" ]; then
    local generator=()
    if command -v ninja > /dev/null; then generator=(-G Ninja); fi
    cmake -S "$src/perfbench" -B "$dir" -DCMAKE_BUILD_TYPE=Release \
      "${generator[@]}" > /dev/null
  fi
  local jobs
  jobs="$(nproc 2> /dev/null || echo 1)"
  [ "$jobs" -le 4 ] || jobs=4
  cmake --build "$dir" --target beebench -j "$jobs" > /dev/null
}
echo "== building base ${base_sha:0:12} and the working tree ==" >&2
build_side "$base_src" "$ab/base"
build_side "$repo" "$ab/change"

# One run: appends run.py's JSON result line to
# <runs>/<side>.<workload>.seed<seed> and keeps its stderr in
# <runs>/<side>.<workload>.seed<seed>.pair<pair>.log.
run_side() {
  local side="$1" src="$2" workload="$3" s="$4" pair="$5" out
  local file="$runs/$side.$workload.seed$s"
  if out="$(CARGO_TARGET_DIR="$ab/$side" python3 "$src/perfbench/run.py" \
              --workload "$workload" --seed "$s" --seconds "$seconds" \
              --trace 0 2> "$file.pair$pair.log")"; then
    printf '%s\n' "$out" | tail -n 1 >> "$file"
  else
    echo '{"correct": false, "failed": -1, "attempted": 0, "metrics": {}}' \
      >> "$file"
  fi
}

for s in "${seeds[@]}"; do
  label=""
  [ ${#seeds[@]} -eq 1 ] || label=" seed $s"
  for workload in "${workloads[@]}"; do
    for ((pair = 1; pair <= pairs; ++pair)); do
      echo "== $workload$label pair $pair/$pairs ==" >&2
      if ((pair % 2 == 1)); then
        run_side base "$base_src" "$workload" "$s" "$pair"
        run_side change "$repo" "$workload" "$s" "$pair"
      else
        run_side change "$repo" "$workload" "$s" "$pair"
        run_side base "$base_src" "$workload" "$s" "$pair"
      fi
    done
  done
done

head="$(git -C "$repo" rev-parse --short=12 HEAD)"
if [ -n "$(git -C "$repo" status --porcelain -- src perfbench)" ]; then
  head="$head+dirty"
fi
python3 - "$repo/BENCHMARK.json" "$runs" "$runs_dir" "$base_sha" "$head" \
  "$pairs" "$seed" "$seconds" "${workloads[@]}" <<'EOF'
import json
import statistics
import sys

bench_path, runs, runs_dir, base_sha, head, pairs, seed_list, seconds = \
    sys.argv[1:9]
seeds = [int(s) for s in seed_list.split(",")]
workloads = sys.argv[9:]
end_to_end = json.load(open(bench_path))["end_to_end"]


def load(side, workload, seed):
    with open(f"{runs}/{side}.{workload}.seed{seed}") as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def sig(v):
    return float(f"{v:.6g}")


def fmt(v):
    if abs(v) >= 1e6:
        return f"{v / 1e6:.2f}M"
    if abs(v) >= 1e4:
        return f"{v / 1e3:.1f}k"
    return f"{v:.4g}"


def report(seed):
    """Prints one seed's tables and returns its verdicts."""
    rows, series, regressions, unresolved, failed_runs = [], [], [], [], []
    numbers = {}
    for workload in workloads:
        sides = {side: load(side, workload, seed)
                 for side in ("base", "change")}
        for side, results in sides.items():
            for pair, r in enumerate(results, 1):
                if not r.get("correct") or r.get("failed") != 0:
                    failed_runs.append(f"{workload} {side} pair {pair}")
        for metric in end_to_end:
            name, bound = metric["name"], metric["bound"]
            lower = metric["better"] == "lower"
            values = {}
            for side, results in sides.items():
                values[side] = [r["metrics"][name]["value"] for r in results
                                if name in r.get("metrics", {})]
            base, change = values["base"], values["change"]
            if len(base) < 2 or len(change) < 2:
                rows.append(f"| {workload} | {name} | - | - | - | - | "
                            f"{bound:.0%} | no data |")
                continue
            bq1, bmed, bq3 = quartiles(base)
            cq1, cmed, cq3 = quartiles(change)
            numbers.setdefault(workload, {})[name] = {
                "base_median": sig(bmed), "base_iqr": sig(bq3 - bq1),
                "change_median": sig(cmed), "change_iqr": sig(cq3 - cq1)}
            delta = (cmed - bmed) / bmed
            worse = delta if lower else -delta
            iqr = (bq3 - bq1) / bmed
            wins = sum((c < b) if lower else (c > b)
                       for b, c in zip(base, change))
            all_better = (max(change) < min(base)) if lower else \
                (min(change) > max(base))
            if iqr > bound and not all_better:
                verdict = f"unresolved (base IQR {iqr:.1%})"
                unresolved.append(f"{workload} {name}")
            elif worse > bound:
                verdict = "regression"
                regressions.append(f"{workload} {name}")
            else:
                verdict = "within bound"
            rows.append(
                f"| {workload} | {name} | {fmt(bmed)} [{fmt(bq1)}, "
                f"{fmt(bq3)}] | {fmt(cmed)} [{fmt(cq1)}, {fmt(cq3)}] | "
                f"{delta:+.1%} | {wins}/{min(len(base), len(change))} | "
                f"{bound:.0%} | {verdict} |")
            series.append(f"| {workload} | {name} | "
                          f"{' '.join(map(fmt, base))} | "
                          f"{' '.join(map(fmt, change))} |")

    print(f"Base {base_sha[:12]} vs the working tree at {head}: "
          f"{pairs} alternating pairs, seed {seed}, {seconds} s runs.")
    print()
    print("| Workload | Metric | Base median [Q1, Q3] | Change median [Q1, Q3] "
          "| Δ median | Change better | Bound | Verdict |")
    print("|---|---|---|---|---|---|---|---|")
    print("\n".join(rows))
    print()
    print("| Workload | Metric | Base runs (pair order) | Change runs (pair order) |")
    print("|---|---|---|---|")
    print("\n".join(series))
    print()
    for run in failed_runs:
        print(f"FAILED RUN {run}")
    for r in regressions:
        print(f"REGRESSION {r}")
    return {"regressions": regressions, "unresolved": unresolved,
            "failed_runs": failed_runs,
            "ok": not regressions and not failed_runs, "numbers": numbers}


verdicts = {seed: report(seed) for seed in seeds}
ok = all(v["ok"] for v in verdicts.values())
summary = {"base": base_sha, "head": head, "pairs": int(pairs),
           "runs_dir": runs_dir}
if len(seeds) == 1:
    summary.update(seed=seeds[0], seconds=float(seconds),
                   workloads=workloads, **verdicts[seeds[0]])
else:
    summary.update(seeds=seeds, seconds=float(seconds), workloads=workloads,
                   per_seed={str(s): v for s, v in verdicts.items()}, ok=ok)
print(json.dumps(summary))
sys.exit(0 if ok else 1)
EOF
