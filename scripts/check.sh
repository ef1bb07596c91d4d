#!/usr/bin/env bash
# Tier-1 verification + documentation consistency checks.
#
# Usage: scripts/check.sh [build-dir] [--bench] [--sanitize]
#        (build-dir defaults to: build)
#
# 1. Configure, build and run the full test suite.
# 2. SIMD dispatch parity: the full fig5 output (thread-count line
#    normalized) must be byte-identical to scripts/anchors/fig5.txt under
#    forced-scalar, forced-SSE2 and auto SIMD dispatch — the runtime CPU
#    dispatch tier is a pure throughput knob (docs/ARCHITECTURE.md
#    "Runtime CPU dispatch"). Each DSP/ML kernel has one production path;
#    its naive oracle lives in tests/dsp_oracle.hpp.
# 3. Resilience anchors: with an empty FaultPlan the fig6/fig8/fig9
#    benches must be byte-identical to the committed scripts/anchors/
#    outputs (the fault layer costs nothing until scheduled), the
#    resilience sweep itself must be thread-count invariant, and faulted
#    resilience sweeps (kind = mix, brownout, degraded, battery, sensor
#    at outage rate 0.2) must reproduce scripts/anchors/resilience_*.csv.
# 4. DES anchors: the fig2 farm run must be byte-identical to
#    scripts/anchors/fig2.txt for threads=1 and threads=4 (the engine's
#    (time, seq) order and the parallel apiary must not move a single
#    digit), and fig3_wakeup_frequency and `ablation_adaptive_wakeup
#    days=1` must reproduce scripts/anchors/fig3.txt and
#    scripts/anchors/ablation_adaptive_wakeup.txt. fig2 never changes a
#    PeriodicTask's period: the adaptive ablation calls set_period on
#    every regime change, and fig3 runs the wake-up task at six periods.
# 5. Checkpoint resume parity: a fig6 campaign sharded across two
#    processes and merged must write a CSV byte-identical to the
#    committed scripts/anchors/fig6.csv (same bytes as the straight
#    run), a scale_fleet campaign killed mid-point (stop_after) and
#    resumed must match its uninterrupted run, and a faulted
#    resilience_sweep campaign stopped after two points and resumed, and
#    one sharded across two processes and merged, must both reproduce
#    scripts/anchors/resilience_mix.csv (docs/CHECKPOINT.md).
# 6. Repo benchmark digest contract: perfbench/ builds into
#    <build-dir>/perfbench, `beebench --record-digests 0 15` must
#    reproduce those seeds' rows of perfbench/reference_digests.tsv (the
#    fleet_campaign digests cover every raw Welford field of the lossy
#    and resilient sweeps, 10^6-hive rung included), and one-second
#    fleet_campaign, serve_hot, serve_cold and queen_detect runs must
#    report "correct": true with 0 failed operations (serve_hot's
#    requests are all answered inside submit(), serve_cold's all go to a
#    worker; both must balance the service's admission ledger and return
#    responses equal to a direct sweep field for field; every timed
#    queen_detect clip — mel image, tensor, CNN forward — must reproduce
#    its reference logits bit for bit).
# 7. Docs link-check:
#    a. every local markdown link in README.md, DESIGN.md,
#       EXPERIMENTS.md and docs/*.md resolves to an existing file;
#    b. every top-level directory under src/ is mentioned in
#       docs/ARCHITECTURE.md (the paper↔code map must stay complete);
#    c. every public class/struct in the src/fault and src/serve headers,
#       the checkpoint-layer headers (core/fleet_columns.hpp,
#       core/checkpoint.hpp, util/file.hpp) and the orchestration headers
#       (core/orchestrator.hpp, core/placement.hpp,
#       core/placement_search.hpp) carries a /// doc comment (the
#       resilience, serving, resumability and placement stories must stay
#       documented).
#
# Opt-in steps:
#   --bench     run each of the four perfbench workloads at its default
#               seed and length (perfbench/run.py, built into
#               <build-dir>/perfbench) and append each run record (commit,
#               machine, medians and spreads) as one JSON line to
#               BENCH_history.jsonl at the repo root (perf trajectory
#               across commits); fails if a run fails or reports failed
#               operations, or if an end_to_end median of BENCHMARK.json
#               is worse than the last line from the same workload, seed,
#               length, run kind and machine (nproc, ISA, compiler) by
#               more than that metric's bound (a fraction of the previous
#               value). The record is appended either way.
#   --sanitize  configure a second build tree (<build-dir>-san) with
#               -DBEESIM_SANITIZE=address,undefined and run the
#               sim/fault/net/checkpoint/simd/precision/placement-search,
#               serving, core-simulation, obs, allocator, orchestrator,
#               property-fuzz and DSP-kernel test binaries under
#               ASan+UBSan (the last runs the STFT's reflect-mapped edge
#               frames and the row-chunked dB pass); then a
#               third tree (<build-dir>-tsan) with
#               -DBEESIM_SANITIZE=thread and run the task-pool, serving
#               and precision test binaries under ThreadSanitizer (the
#               suites that exercise the task pool's shared queue, the
#               serving layer's submission lanes racing shutdown(), and
#               f32 and int8 inference running side by side in one
#               process). Each tree is built through one goal of
#               tests/CMakeLists.txt (sanitize_address_tests,
#               sanitize_thread_tests) with one job per CPU.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="build"
run_bench=0
run_sanitize=0
for arg in "$@"; do
  case "$arg" in
    --bench) run_bench=1 ;;
    --sanitize) run_sanitize=1 ;;
    --*) echo "unknown flag: $arg" >&2; exit 2 ;;
    *) build="$arg" ;;
  esac
done
fail=0

check_anchor() {
  local name="$1" anchor="$2" actual="$3"
  if cmp -s "$anchor" "$actual"; then
    echo "  ok  $name matches $(basename "$anchor")"
  else
    echo "  MISMATCH  $name diverged from committed anchor $anchor"
    diff "$anchor" "$actual" | head -20 || true
    fail=1
  fi
}

echo "== tier-1: configure + build + test =="
cmake -B "$repo/$build" -S "$repo"
cmake --build "$repo/$build" -j
ctest --test-dir "$repo/$build" --output-on-failure -j

echo
echo "== scale_fleet: smoke + thread-count invariance =="
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
"$repo/$build/bench/scale_fleet" lo=500 hi=20000 points=4 cycles=3 \
  threads=1 csv="$tmp/t1.csv"
"$repo/$build/bench/scale_fleet" lo=500 hi=20000 points=4 cycles=3 \
  threads=4 csv="$tmp/t4.csv"
if cmp -s "$tmp/t1.csv" "$tmp/t4.csv"; then
  echo "  ok  sweep CSV bit-identical for threads=1 and threads=4"
else
  echo "  MISMATCH  sweep results depend on the thread count"
  diff "$tmp/t1.csv" "$tmp/t4.csv" || true
  fail=1
fi

echo
echo "== fig5: SIMD dispatch tiers byte-identical to committed anchor =="
# Full stdout must reproduce the committed forced-scalar output under
# every dispatch tier: scalar, SSE2 (what production selects on x86
# without AVX2) and auto. The thread-count line is normalized: it
# reflects the machine, not the computation.
fig5_args="clips=24 clip_seconds=0.6 epochs=1 sides=20,40 seed=7"
normalize_fig5() { sed 's/, [0-9]* threads)/, N threads)/' "$1"; }
for tier in scalar sse2 auto; do
  # shellcheck disable=SC2086  # word splitting of fig5_args is intended
  "$repo/$build/bench/fig5_model_energy_accuracy" $fig5_args \
    dispatch="$tier" > "$tmp/fig5_${tier}_raw.txt"
  normalize_fig5 "$tmp/fig5_${tier}_raw.txt" > "$tmp/fig5_$tier.txt"
  check_anchor "fig5 dispatch=$tier" "$repo/scripts/anchors/fig5.txt" \
    "$tmp/fig5_$tier.txt"
done

echo
echo "== resilience: fault-free benches byte-identical to anchors =="
"$repo/$build/bench/fig6_largescale_ideal" hi=100 > "$tmp/fig6.txt"
check_anchor "fig6" "$repo/scripts/anchors/fig6.txt" "$tmp/fig6.txt"
"$repo/$build/bench/fig8_losses" hi=100 step=50 cycles_per_point=2 \
  > "$tmp/fig8.txt"
check_anchor "fig8 stdout" "$repo/scripts/anchors/fig8.txt" "$tmp/fig8.txt"
"$repo/$build/bench/fig8_losses" hi=100 step=50 cycles_per_point=2 \
  csv="$tmp/fig8.csv" > /dev/null
check_anchor "fig8 csv" "$repo/scripts/anchors/fig8.csv" "$tmp/fig8.csv"
"$repo/$build/bench/fig9_losses_comparison" hi=700 step=300 \
  cycles_per_point=2 > "$tmp/fig9.txt"
check_anchor "fig9" "$repo/scripts/anchors/fig9.txt" "$tmp/fig9.txt"

echo
echo "== resilience_sweep: empty-plan parity + thread invariance =="
"$repo/$build/bench/resilience_sweep" hi=400 step=300 cycles=20 \
  rates=0,0.2 threads=1 csv="$tmp/res1.csv" > "$tmp/res1.txt"
if grep -q "resilience parity ok" "$tmp/res1.txt"; then
  echo "  ok  empty FaultPlan bit-identical to LargeScaleSimulator"
else
  echo "  MISMATCH  resilience parity self-check failed"
  fail=1
fi
"$repo/$build/bench/resilience_sweep" hi=400 step=300 cycles=20 \
  rates=0,0.2 threads=4 csv="$tmp/res4.csv" > /dev/null
if cmp -s "$tmp/res1.csv" "$tmp/res4.csv"; then
  echo "  ok  resilience sweep CSV bit-identical for threads=1 and threads=4"
else
  echo "  MISMATCH  resilience sweep depends on the thread count"
  diff "$tmp/res1.csv" "$tmp/res4.csv" || true
  fail=1
fi

echo
echo "== resilience_sweep: faulted sweeps byte-identical to anchors =="
# One plan per fault kind. The anchors were written by the memo-free
# scalar resilient loop, so a change to the per-point loop cannot move
# both sides of the thread-count comparison above unnoticed.
for kind in mix brownout degraded battery sensor; do
  "$repo/$build/bench/resilience_sweep" lo=10 hi=2010 step=400 cycles=300 \
    rates=0.2 kind="$kind" threads=4 csv="$tmp/res_$kind.csv" > /dev/null
  check_anchor "resilience_sweep kind=$kind" \
    "$repo/scripts/anchors/resilience_$kind.csv" "$tmp/res_$kind.csv"
done

echo
echo "== DES anchors: fig2 farm (any thread count), fig3, adaptive wake-up =="
"$repo/$build/bench/fig2_weekly_trace" days=2 hives=3 threads=1 \
  > "$tmp/fig2_t1.txt"
check_anchor "fig2 threads=1" "$repo/scripts/anchors/fig2.txt" \
  "$tmp/fig2_t1.txt"
"$repo/$build/bench/fig2_weekly_trace" days=2 hives=3 threads=4 \
  > "$tmp/fig2_t4.txt"
check_anchor "fig2 threads=4" "$repo/scripts/anchors/fig2.txt" \
  "$tmp/fig2_t4.txt"
"$repo/$build/bench/fig3_wakeup_frequency" > "$tmp/fig3.txt"
check_anchor "fig3" "$repo/scripts/anchors/fig3.txt" "$tmp/fig3.txt"
"$repo/$build/bench/ablation_adaptive_wakeup" days=1 > "$tmp/adaptive.txt"
check_anchor "ablation_adaptive_wakeup days=1" \
  "$repo/scripts/anchors/ablation_adaptive_wakeup.txt" "$tmp/adaptive.txt"

echo
echo "== checkpoints: sharded + interrupted campaigns match straight runs =="
# fig6 (one cycle per point): split the campaign across two processes,
# then merge the shard checkpoints back into the final CSV. Every byte
# must match a straight single-process run.
"$repo/$build/bench/fig6_largescale_ideal" hi=100 \
  csv="$tmp/f6_straight.csv" > /dev/null
"$repo/$build/bench/fig6_largescale_ideal" hi=100 \
  shards=2 shard=0 checkpoint="$tmp/f6.s0.ck" > /dev/null
"$repo/$build/bench/fig6_largescale_ideal" hi=100 \
  shards=2 shard=1 checkpoint="$tmp/f6.s1.ck" > /dev/null
"$repo/$build/bench/fig6_largescale_ideal" hi=100 \
  merge="$tmp/f6.s0.ck,$tmp/f6.s1.ck" csv="$tmp/f6_merged.csv" > /dev/null
check_anchor "fig6 straight csv" "$repo/scripts/anchors/fig6.csv" \
  "$tmp/f6_straight.csv"
check_anchor "fig6 sharded+merged csv" "$repo/scripts/anchors/fig6.csv" \
  "$tmp/f6_merged.csv"
# scale_fleet (three cycles per point): kill the campaign mid-point via
# stop_after (a per-point cycle budget, so =2 leaves every point two
# thirds done), then resume from the checkpoint in a fresh process. The
# RNG cursor and Welford accumulators must land bit-for-bit where the
# uninterrupted run does.
sf_args="lo=500 hi=20000 points=4 cycles=3 threads=2 seed=11"
# shellcheck disable=SC2086  # word splitting of sf_args is intended
"$repo/$build/bench/scale_fleet" $sf_args \
  csv="$tmp/sf_straight.csv" > /dev/null
# shellcheck disable=SC2086
"$repo/$build/bench/scale_fleet" $sf_args \
  stop_after=2 checkpoint="$tmp/sf.ck" > /dev/null
# shellcheck disable=SC2086
"$repo/$build/bench/scale_fleet" $sf_args \
  resume=1 checkpoint="$tmp/sf.ck" csv="$tmp/sf_resumed.csv" > /dev/null
if cmp -s "$tmp/sf_straight.csv" "$tmp/sf_resumed.csv"; then
  echo "  ok  scale_fleet killed-and-resumed CSV bit-identical to the" \
       "uninterrupted run"
else
  echo "  MISMATCH  resumed scale_fleet campaign diverged"
  diff "$tmp/sf_straight.csv" "$tmp/sf_resumed.csv" | head -10 || true
  fail=1
fi
# resilience_sweep (point-granular): stop after two whole points and
# resume, then shard the same campaign across two processes and merge.
# Both must land on the faulted anchor the straight run reproduces above.
rs_args="lo=10 hi=2010 step=400 cycles=300 rates=0.2 kind=mix threads=4"
# shellcheck disable=SC2086
"$repo/$build/bench/resilience_sweep" $rs_args \
  stop_after=2 checkpoint="$tmp/rs.ck" > /dev/null
# shellcheck disable=SC2086
"$repo/$build/bench/resilience_sweep" $rs_args \
  resume=1 checkpoint="$tmp/rs.ck" csv="$tmp/rs_resumed.csv" > /dev/null
check_anchor "resilience_sweep stopped+resumed csv" \
  "$repo/scripts/anchors/resilience_mix.csv" "$tmp/rs_resumed.csv"
for shard in 0 1; do
  # shellcheck disable=SC2086
  "$repo/$build/bench/resilience_sweep" $rs_args \
    shards=2 shard="$shard" checkpoint="$tmp/rs.s$shard.ck" > /dev/null
done
# shellcheck disable=SC2086
"$repo/$build/bench/resilience_sweep" $rs_args \
  merge="$tmp/rs.s0.ck,$tmp/rs.s1.ck" csv="$tmp/rs_merged.csv" > /dev/null
check_anchor "resilience_sweep sharded+merged csv" \
  "$repo/scripts/anchors/resilience_mix.csv" "$tmp/rs_merged.csv"

echo
echo "== perfbench: recorded digests + fleet/serve/queen output checks =="
# The repo benchmark is its own CMake package compiled from src/; run.py
# builds it wherever CARGO_TARGET_DIR points, here inside the check tree.
perfbench_dir="$repo/$build/perfbench"
perfbench_run() {
  CARGO_TARGET_DIR="$perfbench_dir" python3 "$repo/perfbench/run.py" \
    --workload "$1" --seconds 1 > "$tmp/pb_$1.txt" 2>> "$tmp/pb_build.log"
}
perfbench_ok() {
  tail -n 1 "$tmp/pb_$1.txt" | python3 -c 'import json, sys
r = json.loads(sys.stdin.read())
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)'
}
for w in fleet_campaign serve_hot serve_cold queen_detect; do
  if perfbench_run "$w" && perfbench_ok "$w"; then
    echo "  ok  perfbench $w: correct, 0 failed operations"
  else
    echo "  MISMATCH  perfbench $w failed its output checks:"
    tail -20 "$tmp/pb_$w.txt" "$tmp/pb_build.log" 2> /dev/null || true
    fail=1
  fi
done
if "$perfbench_dir/beebench" --record-digests 0 15 > "$tmp/digests.tsv" \
    && diff <(grep -v '^#' "$tmp/digests.tsv") \
       <(awk -F'\t' '!/^#/ && $2 <= 15' \
         "$repo/perfbench/reference_digests.tsv") > "$tmp/digests.diff"
then
  echo "  ok  seeds 0-15 reproduce perfbench/reference_digests.tsv" \
       "($(grep -vc '^#' "$tmp/digests.tsv") rows)"
else
  echo "  MISMATCH  recorded digests diverged:"
  head -10 "$tmp/digests.diff" 2> /dev/null || true
  fail=1
fi

# Compares run record $1 with the last BENCH_history.jsonl line of the
# same workload, seed, length, run kind and machine. Exits 1 when an
# end_to_end metric of BENCHMARK.json is worse than that line's by more
# than its bound, a fraction of the previous value taken in the metric's
# `better` direction. With no matching line there is nothing to compare.
bench_gate() {
  python3 - "$1" "$repo/BENCH_history.jsonl" "$repo/BENCHMARK.json" <<'PY'
import json, sys

record_path, history_path, spec_path = sys.argv[1:]
new = json.load(open(record_path))
keys = ("workload", "seed", "seconds", "run", "nproc", "isa", "compiler")
previous = None
for line in open(history_path):
    if line.strip():
        old = json.loads(line)
        if all(old["record"].get(k) == new["record"].get(k) for k in keys):
            previous = old
workload = new["record"]["workload"]
if previous is None:
    print(f"  gate  {workload}: no earlier run on this machine, not compared")
    sys.exit(0)
before = {m["name"]: m["value"] for m in previous["metrics"]}
after = {m["name"]: m["value"] for m in new["metrics"]}
worse = False
for metric in json.load(open(spec_path))["end_to_end"]:
    name, bound = metric["name"], metric["bound"]
    if name not in before or name not in after:
        continue
    if metric["better"] == "higher":
        regressed = after[name] < before[name] * (1 - bound)
    else:
        regressed = after[name] > before[name] * (1 + bound)
    if regressed:
        print(f"  REGRESSION  {workload} {name}: {after[name]:.6g} now vs "
              f"{before[name]:.6g} before, bound {bound:g}")
        worse = True
sys.exit(1 if worse else 0)
PY
}

if [ "$run_bench" -eq 1 ]; then
  echo
  echo "== bench (--bench): perfbench run records -> BENCH_history.jsonl =="
  for w in fleet_campaign serve_hot serve_cold queen_detect; do
    record="$perfbench_dir/results/$w.seed1.untraced.record.json"
    rm -f "$record"
    if CARGO_TARGET_DIR="$perfbench_dir" python3 "$repo/perfbench/run.py" \
         --workload "$w" > "$tmp/bench_$w.txt" 2>> "$tmp/pb_build.log" \
       && jq -e '.failed == 0' "$record" > /dev/null; then
      echo "  ok  $w: $(jq -r '.metrics[]
        | select(.name == "throughput_per_s")
        | "\(.value) \(.unit), spread \(.spread)"' "$record")"
    else
      echo "  FAILED  perfbench $w run or record:"
      tail -20 "$tmp/bench_$w.txt" 2> /dev/null || true
      fail=1
    fi
    # Gate on the previous matching run, then append this one either way.
    if [ -f "$record" ]; then
      bench_gate "$record" || fail=1
      jq -c . "$record" >> "$repo/BENCH_history.jsonl" || fail=1
    fi
  done
fi

if [ "$run_sanitize" -eq 1 ]; then
  echo
  echo "== sanitize (--sanitize): sim/fault/net/serve/dsp tests under ASan+UBSan =="
  # One goal per tree (tests/CMakeLists.txt lists the same binaries), so
  # -j compiles the test sources in parallel; one job per CPU.
  jobs="$(nproc 2> /dev/null || echo 1)"
  cmake -B "$repo/$build-san" -S "$repo" \
    -DBEESIM_SANITIZE=address,undefined > /dev/null
  cmake --build "$repo/$build-san" -j "$jobs" \
    --target sanitize_address_tests > /dev/null
  # UBSan reports and carries on by default; halt_on_error turns a report
  # (a signed overflow, say) into a failing exit status.
  for t in test_sim test_fault test_net test_checkpoint \
           test_simd test_precision test_placement_search \
           test_serve test_core_simulation test_obs \
           test_core_allocator test_orchestrator test_property_fuzz \
           test_dsp_kernels; do
    if UBSAN_OPTIONS=halt_on_error=1 "$repo/$build-san/tests/$t" \
         --gtest_brief=1 > "$tmp/$t.san.log" 2>&1
    then
      echo "  ok  $t clean under address,undefined"
    else
      echo "  FAILED  $t under sanitizers:"
      tail -30 "$tmp/$t.san.log" | sed 's/^/    /'
      fail=1
    fi
  done

  echo
  echo "== sanitize (--sanitize): pool, serving + precision tests under TSan =="
  cmake -B "$repo/$build-tsan" -S "$repo" \
    -DBEESIM_SANITIZE=thread > /dev/null
  cmake --build "$repo/$build-tsan" -j "$jobs" \
    --target sanitize_thread_tests > /dev/null
  for t in test_task_pool test_serve test_precision; do
    if "$repo/$build-tsan/tests/$t" --gtest_brief=1 > "$tmp/$t.tsan.log" 2>&1
    then
      echo "  ok  $t clean under thread"
    else
      echo "  FAILED  $t under ThreadSanitizer:"
      tail -30 "$tmp/$t.tsan.log" | sed 's/^/    /'
      fail=1
    fi
  done
fi

echo
echo "== docs: fault/serve/checkpoint public types carry /// doc comments =="
for hdr in "$repo"/src/fault/*.hpp "$repo"/src/serve/*.hpp \
           "$repo"/src/core/fleet_columns.hpp \
           "$repo"/src/core/checkpoint.hpp \
           "$repo"/src/core/orchestrator.hpp \
           "$repo"/src/core/placement.hpp \
           "$repo"/src/core/placement_search.hpp \
           "$repo"/src/util/file.hpp; do
  # Every class/struct declared at column 0 must be directly preceded by
  # a Doxygen-style /// line (possibly via other /// lines above it; a
  # template<...> header line between the two is allowed).
  missing="$(awk '
    /^\/\/\// { doc = 1; next }
    /^template/ { next }
    /^(class|struct) [A-Za-z]/ {
      if (!doc) print FILENAME ": " $0
    }
    { doc = 0 }
  ' "$hdr")"
  if [ -z "$missing" ]; then
    echo "  ok  $(basename "$hdr")"
  else
    echo "  MISSING doc comment(s):"
    echo "$missing" | sed 's/^/    /'
    fail=1
  fi
done

echo
echo "== docs: every markdown cross-reference resolves =="
# Covers README.md, DESIGN.md, EXPERIMENTS.md and docs/*.md: every local
# `](path.md)` link target must exist, resolved relative to the linking
# file (with a repo-root fallback for historical `docs/...` style links).
for md in "$repo"/README.md "$repo"/DESIGN.md "$repo"/EXPERIMENTS.md \
          "$repo"/docs/*.md; do
  [ -f "$md" ] || continue
  broken=0
  while read -r target; do
    clean="${target%%#*}"
    [ -n "$clean" ] || continue
    case "$clean" in http*|/*) continue ;; esac
    if [ ! -f "$(dirname "$md")/$clean" ] && [ ! -f "$repo/$clean" ]; then
      echo "  BROKEN  $(basename "$md") -> $clean"
      broken=1
      fail=1
    fi
  done < <(grep -o ']([^)]*\.md[^)]*)' "$md" | sed 's/^](//; s/)$//' \
           | sort -u)
  [ "$broken" -eq 0 ] && echo "  ok  $(basename "$md")"
done

echo
echo "== docs: every src/ module mentioned in docs/ARCHITECTURE.md =="
for dir in "$repo"/src/*/; do
  mod="$(basename "$dir")"
  if grep -q "src/$mod" "$repo/docs/ARCHITECTURE.md" 2>/dev/null; then
    echo "  ok  src/$mod"
  else
    echo "  MISSING  src/$mod (not mentioned in docs/ARCHITECTURE.md)"
    fail=1
  fi
done

echo
if [ "$fail" -ne 0 ]; then
  echo "check.sh: FAILED (see MISSING lines above)"
  exit 1
fi
echo "check.sh: all checks passed"
