#!/usr/bin/env bash
# Pre-merge gate; the first failure stops it.
#
# 1. tier-1: build the default tree and run ctest.
# 2. sanitizers + determinism: an ASan/UBSan build runs test_crypto (the
#    bignum kernels at every limb width the tests sweep), then E9-E12 and
#    E14-E17 twice each at fixed seeds. Each bench's own PASS/FAIL gate
#    counts, and the two passes must agree (trace, pcap and CSV by digest).
# 3. dispatch matrix: E1 and E9 agree under RMC_DISPATCH=fast and =legacy.
# 4. baseline: one scripts/run_benches.sh run (Release, snapshot arguments)
#    must match the committed bench/snapshots/: the JSON of E1-E7, E9-E12,
#    E14-E17 and ABLATION, and E12's trace and pcap and E17's CSV through
#    ARTIFACTS.sha256. A change that moves a result refreshes the snapshots
#    in the same diff (bench/snapshots/README.md).
#
# Every comparison is scripts/bench_diff.py: it drops host-timed fields and
# compares the rest exactly.
#
# Usage:
#   scripts/check.sh [--skip-baseline]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
skip_baseline=0
[[ "${1:-}" == "--skip-baseline" ]] && skip_baseline=1
bench_diff() { python3 "$repo_root/scripts/bench_diff.py" "$@"; }
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "== tier-1: build + ctest =="
cmake -B "$repo_root/build" -S "$repo_root" >/dev/null
cmake --build "$repo_root/build" -j >/dev/null
(cd "$repo_root/build" && ctest --output-on-failure -j)

echo
echo "== sanitizers: ASan+UBSan test_crypto + E9-E12 + E14-E17, run twice =="
san_dir="$repo_root/build-san"
cmake -B "$san_dir" -S "$repo_root" \
  -DCMAKE_BUILD_TYPE=Debug -DRMC_SANITIZE=address,undefined >/dev/null
cmake --build "$san_dir" -j --target test_crypto \
  --target bench_fault_soak --target bench_crash_soak \
  --target bench_resumption --target bench_trace_audit \
  --target bench_crypto_offload --target bench_abuse_soak \
  --target bench_mem_churn --target bench_slo_timeline >/dev/null
"$san_dir/tests/test_crypto" --gtest_brief=1

# E16 at reduced scale (full scale is the baseline's job) in quarantine mode:
# every slab alloc/free/poison-audit path runs under ASan, and the slab's own
# detection must name the deliberate double-free and use-after-free.
e16_flags=(--seed 233 --churn-cycles 20000 --quarantine-cycles 5000
           --sessions 40 --fault-sessions 8 --min-cycles 1 --quarantine 1)
# san_benches <dir>: one sanitized run of each bench, artifacts into <dir>.
san_benches() {
  local d="$1" b="$san_dir/bench"
  mkdir -p "$d"
  "$b/bench_fault_soak" --seed 233 --json "$d/BENCH_E9.json"
  "$b/bench_crash_soak" --seed 233 --json "$d/BENCH_E10.json"
  "$b/bench_resumption" --json "$d/BENCH_E11.json"
  # E12's Chrome trace and pcap must repeat too, not just its JSON.
  "$b/bench_trace_audit" --json "$d/BENCH_E12.json" \
    --trace "$d/BENCH_E12.trace.json" --pcap "$d/BENCH_E12.pcap"
  # E14 carries its own gate (engine wire identity + >=5x per record).
  "$b/bench_crypto_offload" --json "$d/BENCH_E14.json"
  # E15's fuzz phase feeds every mutated input to sanitizer-checked parsers.
  "$b/bench_abuse_soak" --seed 233 --json "$d/BENCH_E15.json"
  "$b/bench_mem_churn" "${e16_flags[@]}" --json "$d/BENCH_E16.json"
  # E17 runs the sampler, SLO engine and both soak legs under ASan/UBSan.
  "$b/bench_slo_timeline" --seed 563 --json "$d/BENCH_E17.json" \
    --csv "$d/BENCH_E17.timeline.csv"
  (cd "$d" && sha256sum BENCH_E12.trace.json BENCH_E12.pcap \
    BENCH_E17.timeline.csv >ARTIFACTS.sha256)
}
san_benches "$tmp/san1"
san_benches "$tmp/san2" >/dev/null  # the determinism rerun
bench_diff "$tmp/san1" "$tmp/san2"

echo
echo "== dispatch matrix: fast vs legacy => identical E1/E9 json =="
# The predecoded fast interpreter must be an execution-order no-op: the same
# bench under RMC_DISPATCH=fast and RMC_DISPATCH=legacy emits the same JSON.
for entry in E1:bench_aes_asm_vs_c E9:bench_fault_soak; do
  id="${entry%%:*}" bin="${entry#*:}"
  extra=()
  [[ "$id" == E9 ]] && extra=(--seed 233)
  for mode in fast legacy; do
    RMC_DISPATCH=$mode "$repo_root/build/bench/$bin" "${extra[@]}" \
      --json "$tmp/${id}_$mode.json" >/dev/null
  done
  bench_diff "$tmp/${id}_fast.json" "$tmp/${id}_legacy.json"
done

if ((skip_baseline)); then
  echo
  echo "check.sh: baseline gate skipped (--skip-baseline)"
else
  echo
  echo "== baseline: a fresh run_benches.sh run matches bench/snapshots =="
  "$repo_root/scripts/run_benches.sh" "$tmp/fresh"
  bench_diff "$repo_root/bench/snapshots" "$tmp/fresh"
fi

echo
echo "check.sh: all gates passed"
