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
#    scripts/anchors/fig2.txt for threads=1 and threads=4 (the pool
#    engine + parallel apiary must not move a single digit).
# 5. Serving smoke: a small multi-tenant serving_load run must balance
#    its admission ledger, pass its bit-identity parity self-check, and
#    hit the cache on an overlapping workload.
# 6. Checkpoint resume parity: a fig6 campaign sharded across two
#    processes and merged must write a CSV byte-identical to the
#    committed scripts/anchors/fig6.csv (same bytes as the straight
#    run), and a scale_fleet campaign killed mid-point (stop_after) and
#    resumed must match its uninterrupted run (docs/CHECKPOINT.md).
# 7. Repo benchmark digest contract: perfbench/ builds into
#    <build-dir>/perfbench, `beebench --record-digests 0 15` must
#    reproduce those seeds' rows of perfbench/reference_digests.tsv (the
#    fleet_campaign digests cover every raw Welford field of the lossy
#    and resilient sweeps, 10^6-hive rung included), and one-second
#    fleet_campaign, serve_hot and serve_cold runs must report
#    "correct": true with 0 failed operations (serve_hot's requests are
#    all answered inside submit(), serve_cold's all go to a worker).
# 8. Docs link-check:
#    a. every local markdown link in README.md, DESIGN.md,
#       EXPERIMENTS.md and docs/*.md resolves to an existing file;
#    b. every top-level directory under src/ is mentioned in
#       docs/ARCHITECTURE.md (the paper↔code map must stay complete);
#    c. every public class/struct in the src/fault and src/serve headers,
#       the checkpoint-layer headers (core/fleet_columns.hpp,
#       core/checkpoint.hpp, util/mmap.hpp) and the orchestration headers
#       (core/orchestrator.hpp, core/placement.hpp,
#       core/placement_search.hpp) carries a /// doc comment (the
#       resilience, serving, resumability and placement stories must stay
#       documented).
#
# Opt-in steps:
#   --bench     run des_microbench + scale_fleet + kernels_microbench +
#               placement_search + pool_microbench + serving_load and
#               write the headline numbers to BENCH_des.json at the repo
#               root (perf trajectory across PRs), including the per-tier
#               f32 and the int8 GEMM kernel throughput, the
#               avx2-vs-scalar and int8-vs-f32 speedup ratios, the
#               greedy-vs-beam placement energy on the fig7 crossover
#               fleet under a cloud-outage plan, the task-pool dispatch
#               overhead vs spawn-per-call (pool.*) and the cache-off
#               serving throughput (serving.*).
#   --sanitize  configure a second build tree (<build-dir>-san) with
#               -DBEESIM_SANITIZE=address,undefined and run the
#               sim/fault/net/checkpoint/simd/precision/placement-search,
#               serving, core-simulation and obs test binaries under
#               ASan+UBSan; then a third tree (<build-dir>-tsan)
#               with -DBEESIM_SANITIZE=thread and run the task-pool and
#               serving test binaries under ThreadSanitizer (the two
#               suites that exercise the work-stealing executor and the
#               lock-free submission rings).
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
echo "== fig2 farm: byte-identical to anchor for any thread count =="
"$repo/$build/bench/fig2_weekly_trace" days=2 hives=3 threads=1 \
  > "$tmp/fig2_t1.txt"
check_anchor "fig2 threads=1" "$repo/scripts/anchors/fig2.txt" \
  "$tmp/fig2_t1.txt"
"$repo/$build/bench/fig2_weekly_trace" days=2 hives=3 threads=4 \
  > "$tmp/fig2_t4.txt"
check_anchor "fig2 threads=4" "$repo/scripts/anchors/fig2.txt" \
  "$tmp/fig2_t4.txt"

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

echo
echo "== perfbench: recorded digests + fleet/serve output checks =="
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
for w in fleet_campaign serve_hot serve_cold; do
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

if [ "$run_bench" -eq 1 ]; then
  echo
  echo "== bench (--bench): headline numbers -> BENCH_des.json =="
  "$repo/$build/bench/des_microbench" events=2000000 reps=3 \
    json="$tmp/des.json" | tail -8
  "$repo/$build/bench/scale_fleet" lo=1000 hi=100000 points=4 cycles=5 \
    > "$tmp/fleet.txt"
  hives_per_sec="$(sed -n \
    's/.*: \([0-9.e+-]*\) hives\/sec.*/\1/p' "$tmp/fleet.txt")"
  echo "  scale_fleet: $hives_per_sec hives/sec"
  "$repo/$build/bench/kernels_microbench" \
    --benchmark_format=json --benchmark_min_time=0.1 \
    > "$tmp/kernels.json" 2> /dev/null
  "$repo/$build/bench/checkpoint_bench" dir="$tmp" > "$tmp/ckpt.txt"
  ckpt_speedup="$(sed -n 's/.*speedup: \([0-9.]*\)x.*/\1/p' "$tmp/ckpt.txt")"
  ckpt_save_ms="$(sed -n 's/.*save: *\([0-9.]*\) ms.*/\1/p' "$tmp/ckpt.txt")"
  ckpt_restore_ms="$(sed -n \
    's/.*restore: *\([0-9.]*\) ms.*/\1/p' "$tmp/ckpt.txt")"
  echo "  checkpoint: soa ${ckpt_speedup}x," \
       "farm save ${ckpt_save_ms} ms / restore ${ckpt_restore_ms} ms"
  "$repo/$build/bench/placement_search" > "$tmp/placement.txt"
  placement_greedy="$(sed -n \
    's/.*greedy_j_per_cycle=\([0-9.]*\).*/\1/p' "$tmp/placement.txt")"
  placement_beam="$(sed -n \
    's/.*beam_j_per_cycle=\([0-9.]*\).*/\1/p' "$tmp/placement.txt")"
  placement_saving="$(sed -n \
    's/.*saving_pct=\([0-9.-]*\).*/\1/p' "$tmp/placement.txt")"
  echo "  placement: greedy ${placement_greedy} J/cycle vs beam" \
       "${placement_beam} J/cycle (${placement_saving}% saved)"
  # require=1: the pool must beat spawn-per-call by >= 5x on the
  # small-grain 64-task region, or the bench (and this script) fails.
  "$repo/$build/bench/pool_microbench" tasks=64 reps=400 threads=4 \
    require=1 > "$tmp/pool.txt"
  pool_dispatch_us="$(sed -n \
    's/.*pool_dispatch_us=\([0-9.]*\).*/\1/p' "$tmp/pool.txt")"
  spawn_dispatch_us="$(sed -n \
    's/.*spawn_dispatch_us=\([0-9.]*\).*/\1/p' "$tmp/pool.txt")"
  pool_speedup="$(sed -n \
    's/.*dispatch_speedup=\([0-9.]*\).*/\1/p' "$tmp/pool.txt")"
  pool_tasks_per_sec="$(sed -n \
    's/.*steal_tasks_per_sec=\([0-9.]*\).*/\1/p' "$tmp/pool.txt")"
  echo "  pool: dispatch ${pool_dispatch_us} us vs spawn" \
       "${spawn_dispatch_us} us (${pool_speedup}x)"
  "$repo/$build/bench/serving_load" tenants=4 requests_per_tenant=12 \
    scenarios=2 cycles_per_point=300 workers=2 > "$tmp/serving_bench.txt"
  serve_cache_off_rps="$(sed -n \
    's/.*cache=off *\([0-9.]*\) req\/s.*/\1/p' "$tmp/serving_bench.txt")"
  echo "  serving: cache-off ${serve_cache_off_rps} req/s"
  jq -n \
    --slurpfile des "$tmp/des.json" \
    --slurpfile kern "$tmp/kernels.json" \
    --arg hps "$hives_per_sec" \
    --arg cks "$ckpt_speedup" \
    --arg cksave "$ckpt_save_ms" \
    --arg ckrestore "$ckpt_restore_ms" \
    --arg plg "$placement_greedy" \
    --arg plb "$placement_beam" \
    --arg pls "$placement_saving" \
    --arg pdus "$pool_dispatch_us" \
    --arg sdus "$spawn_dispatch_us" \
    --arg psp "$pool_speedup" \
    --arg ptps "$pool_tasks_per_sec" \
    --arg scor "$serve_cache_off_rps" \
    '{des: $des[0],
      scale_fleet_hives_per_sec: ($hps | tonumber),
      checkpoint: {soa_speedup: ($cks | tonumber),
                   farm_save_ms: ($cksave | tonumber),
                   farm_restore_ms: ($ckrestore | tonumber)},
      placement: {greedy_j_per_cycle: ($plg | tonumber),
                  beam_j_per_cycle: ($plb | tonumber),
                  saving_pct: ($pls | tonumber)},
      pool: {dispatch_us: ($pdus | tonumber),
             spawn_dispatch_us: ($sdus | tonumber),
             dispatch_speedup_vs_spawn: ($psp | tonumber),
             steal_tasks_per_sec: ($ptps | tonumber)},
      serving: {cache_off_req_per_sec: ($scor | tonumber)},
      kernels: [$kern[0].benchmarks[]
                | {name, real_time, time_unit}],
      gemm: ($kern[0].benchmarks
             | map(select(.items_per_second != null)
                   | {(.name): .items_per_second})
             | add
             | {f32_scalar_flops_per_s: .BM_GemmF32Scalar,
                f32_sse2_flops_per_s: .BM_GemmF32Sse2,
                f32_avx2_flops_per_s: .BM_GemmF32Avx2,
                int8_flops_per_s: .BM_GemmInt8,
                avx2_speedup_vs_scalar:
                  (.BM_GemmF32Avx2 / .BM_GemmF32Scalar),
                int8_speedup_vs_f32: (.BM_GemmInt8 / .BM_GemmF32Avx2)})}' \
    > "$repo/BENCH_des.json"
  echo "  wrote BENCH_des.json ($(jq -r '.des.periodic_speedup_vs_seed' \
    "$repo/BENCH_des.json")x periodic speedup vs seed engine," \
    "gemm avx2 $(jq -r '.gemm.avx2_speedup_vs_scalar' \
    "$repo/BENCH_des.json")x vs scalar," \
    "int8 $(jq -r '.gemm.int8_speedup_vs_f32' \
    "$repo/BENCH_des.json")x vs f32," \
    "pool dispatch $(jq -r '.pool.dispatch_speedup_vs_spawn' \
    "$repo/BENCH_des.json")x vs spawn)"
fi

if [ "$run_sanitize" -eq 1 ]; then
  echo
  echo "== sanitize (--sanitize): sim/fault/net/serve tests under ASan+UBSan =="
  cmake -B "$repo/$build-san" -S "$repo" \
    -DBEESIM_SANITIZE=address,undefined > /dev/null
  cmake --build "$repo/$build-san" -j \
    --target test_sim test_fault test_net test_checkpoint \
             test_simd test_precision test_placement_search \
             test_serve test_core_simulation test_obs > /dev/null
  for t in test_sim test_fault test_net test_checkpoint \
           test_simd test_precision test_placement_search \
           test_serve test_core_simulation test_obs; do
    if "$repo/$build-san/tests/$t" --gtest_brief=1 > "$tmp/$t.san.log" 2>&1
    then
      echo "  ok  $t clean under address,undefined"
    else
      echo "  FAILED  $t under sanitizers:"
      tail -30 "$tmp/$t.san.log" | sed 's/^/    /'
      fail=1
    fi
  done

  echo
  echo "== sanitize (--sanitize): pool + serving tests under TSan =="
  cmake -B "$repo/$build-tsan" -S "$repo" \
    -DBEESIM_SANITIZE=thread > /dev/null
  cmake --build "$repo/$build-tsan" -j \
    --target test_task_pool test_serve > /dev/null
  for t in test_task_pool test_serve; do
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
echo "== serving: load smoke + ledger + cache self-checks =="
"$repo/$build/bench/serving_load" tenants=4 requests_per_tenant=10 \
  scenarios=2 cycles_per_point=50 workers=2 > "$tmp/serving.txt"
if grep -q "admission ledger ok" "$tmp/serving.txt"; then
  echo "  ok  admission ledger balanced (no silent drops)"
else
  echo "  MISMATCH  admission ledger leaked"
  fail=1
fi
if grep -q "serving parity ok" "$tmp/serving.txt"; then
  echo "  ok  cached responses bit-identical to direct computes"
else
  echo "  MISMATCH  serving parity self-check failed"
  fail=1
fi
hit_ratio="$(sed -n 's/.*cache_hit_ratio=\([0-9.]*\).*/\1/p' \
  "$tmp/serving.txt")"
if awk -v r="${hit_ratio:-0}" 'BEGIN { exit !(r > 0) }'; then
  echo "  ok  overlapping tenants hit the cache (hit ratio $hit_ratio)"
else
  echo "  MISMATCH  cache hit ratio is 0 on an overlapping workload"
  fail=1
fi

echo
echo "== docs: fault/serve/checkpoint public types carry /// doc comments =="
for hdr in "$repo"/src/fault/*.hpp "$repo"/src/serve/*.hpp \
           "$repo"/src/core/fleet_columns.hpp \
           "$repo"/src/core/checkpoint.hpp \
           "$repo"/src/core/orchestrator.hpp \
           "$repo"/src/core/placement.hpp \
           "$repo"/src/core/placement_search.hpp \
           "$repo"/src/util/mmap.hpp; do
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
