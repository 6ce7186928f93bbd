#!/usr/bin/env bash
# Pre-merge gate: tier-1 tests, then ASan/UBSan builds of the two soak
# benches — E9 (wire faults) and E10 (board deaths: watchdog, power cuts,
# xalloc exhaustion) — plus the resumption bench E11 and the trace audit
# E12, so every corruption/teardown/recovery/abbreviated-handshake/tracing
# path is sanitizer-clean, then double runs proving those --json artifacts
# are byte-reproducible for a fixed seed. The host-crypto unit tests
# (test_crypto) run in the same sanitizer build, so the raw-limb bignum
# kernels (Knuth division, Montgomery multiplication) are checked at every
# limb width the tests sweep. E12 additionally proves trace
# determinism: two traced runs must produce byte-identical Chrome trace
# JSON *and* pcap, not just identical bench JSON. E15 (abuse soak) runs its
# hostile-peer scenarios and the coverage-guided fuzz phase under the same
# sanitizers — every malformed-input parse path gets exercised with ASan
# watching — and its JSON joins the determinism double-run. E16 (memory
# churn) runs reduced-scale in quarantine/poison mode so every slab
# alloc/free/audit path is sanitizer-checked, and double-runs for byte
# reproducibility. E17 (SLO timeline) runs its partition + power-cut soak
# with the sampler and alert engine under the same sanitizers, and its JSON
# and timeseries CSV join the determinism double-run. Finally, a baseline
# gate: the gated bench artifacts (E1-E5/E9-E12/E14-E17 JSON, E12's Chrome
# trace and pcap, E17's timeseries CSV) must be byte-identical to the ones
# an export of origin/main (or main) produces. Each gated bench keeps its
# own fixed config (E9 sheds when busy, E12 runs resumption with tracing
# on, E16 runs the reduced sanitizer-scale churn), so this is the
# do-no-harm gate: whatever the tree compiles into a bench binary but the
# bench does not select must not move a byte of its output, and a refactor
# of the benches themselves must leave every artifact as it was. The
# always-on instruments (latency histograms, issl.malformed_records,
# board.resets.<cause>) register lazily, on their first event, so they
# appear in the `metrics` of a bench whose run has such an event and
# nowhere else.
#
# Usage:
#   scripts/check.sh [--skip-baseline]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
# Benches report wall-clock host_ms in their JSON for the snapshot perf
# trajectory; every byte-for-byte comparison below must exclude it.
export RMC_BENCH_NO_HOST_MS=1
skip_baseline=0
[[ "${1:-}" == "--skip-baseline" ]] && skip_baseline=1

echo "== tier-1: build + ctest =="
cmake -B "$repo_root/build" -S "$repo_root" >/dev/null
cmake --build "$repo_root/build" -j >/dev/null
(cd "$repo_root/build" && ctest --output-on-failure -j)

echo
echo "== sanitizers: ASan+UBSan test_crypto + soaks (E9, E10) + E11 + E12 + E14-E17 =="
san_dir="$repo_root/build-san"
cmake -B "$san_dir" -S "$repo_root" \
  -DCMAKE_BUILD_TYPE=Debug -DRMC_SANITIZE=address,undefined >/dev/null
cmake --build "$san_dir" -j --target test_crypto \
  --target bench_fault_soak --target bench_crash_soak \
  --target bench_resumption --target bench_trace_audit \
  --target bench_crypto_offload --target bench_abuse_soak \
  --target bench_mem_churn --target bench_slo_timeline >/dev/null
"$san_dir/tests/test_crypto" --gtest_brief=1
"$san_dir/bench/bench_fault_soak" --seed 233
"$san_dir/bench/bench_crash_soak" --seed 233
"$san_dir/bench/bench_resumption"
"$san_dir/bench/bench_trace_audit"
# E14 carries its own PASS/FAIL gate (engine wire identity + >=5x per
# record); a nonzero exit here fails the check either way.
"$san_dir/bench/bench_crypto_offload"
# E15 likewise: never-wedge, zero corruption, full flight-recorder
# attribution, legit goodput under attack — plus the fuzz phase, which
# under this build feeds every mutated input to ASan/UBSan-checked parsers.
"$san_dir/bench/bench_abuse_soak" --seed 233
# E16 under sanitizers runs the whole churn in quarantine/poison mode with
# reduced cycle counts (full scale is the Release snapshot's job): every
# alloc/free/poison-audit path executes with ASan watching the backing
# store, and the deliberate double-free/use-after-free demo must be caught
# by the slab's own detection (the slab never hands the stale bytes to the
# host allocator, so ASan stays quiet and the named-fault gate does the
# asserting).
e16_flags=(--seed 233 --churn-cycles 20000 --quarantine-cycles 5000
           --sessions 40 --fault-sessions 8 --min-cycles 1 --quarantine 1)
"$san_dir/bench/bench_mem_churn" "${e16_flags[@]}"
# E17 runs both legs (bare + instrumented) of its partition/power-cut soak,
# so the sampler scrape, delta rings, percentile math, SLO evaluation, and
# the byte-identity signature comparison all execute under ASan/UBSan.
"$san_dir/bench/bench_slo_timeline" --seed 563

echo
echo "== determinism: E9-E11 + E14-E17 json (and E17 csv) byte-reproducible =="
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
"$san_dir/bench/bench_fault_soak" --seed 233 --json "$tmp/a.json" >/dev/null
"$san_dir/bench/bench_fault_soak" --seed 233 --json "$tmp/b.json" >/dev/null
cmp "$tmp/a.json" "$tmp/b.json"
"$san_dir/bench/bench_crash_soak" --seed 233 --json "$tmp/c.json" >/dev/null
"$san_dir/bench/bench_crash_soak" --seed 233 --json "$tmp/d.json" >/dev/null
cmp "$tmp/c.json" "$tmp/d.json"
"$san_dir/bench/bench_resumption" --json "$tmp/e.json" >/dev/null
"$san_dir/bench/bench_resumption" --json "$tmp/f.json" >/dev/null
cmp "$tmp/e.json" "$tmp/f.json"
"$san_dir/bench/bench_crypto_offload" --json "$tmp/e14a.json" >/dev/null
"$san_dir/bench/bench_crypto_offload" --json "$tmp/e14b.json" >/dev/null
cmp "$tmp/e14a.json" "$tmp/e14b.json"
"$san_dir/bench/bench_abuse_soak" --seed 233 --json "$tmp/e15a.json" >/dev/null
"$san_dir/bench/bench_abuse_soak" --seed 233 --json "$tmp/e15b.json" >/dev/null
cmp "$tmp/e15a.json" "$tmp/e15b.json"
"$san_dir/bench/bench_mem_churn" "${e16_flags[@]}" --json "$tmp/e16a.json" >/dev/null
"$san_dir/bench/bench_mem_churn" "${e16_flags[@]}" --json "$tmp/e16b.json" >/dev/null
cmp "$tmp/e16a.json" "$tmp/e16b.json"
"$san_dir/bench/bench_slo_timeline" --seed 563 \
  --json "$tmp/e17a.json" --csv "$tmp/e17a.csv" >/dev/null
"$san_dir/bench/bench_slo_timeline" --seed 563 \
  --json "$tmp/e17b.json" --csv "$tmp/e17b.csv" >/dev/null
cmp "$tmp/e17a.json" "$tmp/e17b.json"
cmp "$tmp/e17a.csv" "$tmp/e17b.csv"
echo "identical artifacts"

echo
echo "== dispatch matrix: fast vs legacy => byte-identical E1/E9 json =="
# The predecoded fast interpreter must be an execution-order no-op: the same
# bench, run under RMC_DISPATCH=fast and RMC_DISPATCH=legacy, has to emit
# byte-identical JSON (host_ms already excluded above). E1 is the
# interpreter-heavy artifact, E9 the SimNet-heavy one.
for entry in E1:bench_aes_asm_vs_c E9:bench_fault_soak; do
  id="${entry%%:*}" bin="${entry#*:}"
  extra=()
  [[ "$id" == E9 ]] && extra=(--seed 233)
  RMC_DISPATCH=fast "$repo_root/build/bench/$bin" "${extra[@]}" \
    --json "$tmp/${id}_fast.json" >/dev/null
  RMC_DISPATCH=legacy "$repo_root/build/bench/$bin" "${extra[@]}" \
    --json "$tmp/${id}_legacy.json" >/dev/null
  cmp "$tmp/${id}_fast.json" "$tmp/${id}_legacy.json"
  echo "$id: fast == legacy"
done

echo
echo "== trace determinism: E12 json + chrome trace + pcap byte-identical =="
"$san_dir/bench/bench_trace_audit" --json "$tmp/g.json" \
  --trace "$tmp/g.trace.json" --pcap "$tmp/g.pcap" >/dev/null
"$san_dir/bench/bench_trace_audit" --json "$tmp/h.json" \
  --trace "$tmp/h.trace.json" --pcap "$tmp/h.pcap" >/dev/null
cmp "$tmp/g.json" "$tmp/h.json"
cmp "$tmp/g.trace.json" "$tmp/h.trace.json"
cmp "$tmp/g.pcap" "$tmp/h.pcap"
echo "identical trace artifacts"

if ((skip_baseline)); then
  echo
  echo "check.sh: baseline gate skipped (--skip-baseline)"
else
  echo
  echo "== baseline: gated bench artifacts identical to main =="
  # Run the gated benches from this tree AND from an export of main, and
  # require byte-identical artifacts. Configs that turn a hardening or
  # observability path on (E9 shedding, E12 resumption + tracing, the
  # E15-E17 soaks) compare against main's run of the same config. E1/E9/E11
  # pin sampler-off byte-identity: the sampler is linked into all three,
  # but no sampler is attached. E2/E3 pin the dcc -> rasm image bytes and
  # cycle counts of the optimization and code-size studies.
  base_ref="origin/main"
  git -C "$repo_root" rev-parse --verify -q "$base_ref" >/dev/null || base_ref="main"
  if git -C "$repo_root" rev-parse --verify -q "$base_ref" >/dev/null &&
     ! git -C "$repo_root" diff --quiet "$base_ref" -- \
         src bench scripts dc asm CMakeLists.txt 2>/dev/null; then
    base_dir="$tmp/baseline-src"
    mkdir -p "$base_dir"
    git -C "$repo_root" archive "$base_ref" | tar -x -C "$base_dir"
    cmake -B "$base_dir/build" -S "$base_dir" -DCMAKE_BUILD_TYPE=Release >/dev/null
    # A gated bench that the baseline ref predates (a brand-new experiment)
    # has nothing to compare against — skip it rather than fail the build.
    gated=()
    for entry in E1:bench_aes_asm_vs_c E2:bench_optimizations \
                 E3:bench_code_size E4:bench_connections \
                 E5:bench_ssl_throughput E9:bench_fault_soak \
                 E10:bench_crash_soak E11:bench_resumption \
                 E12:bench_trace_audit E14:bench_crypto_offload \
                 E15:bench_abuse_soak E16:bench_mem_churn \
                 E17:bench_slo_timeline; do
      if [[ -f "$base_dir/bench/${entry#*:}.cpp" ]]; then
        gated+=("$entry")
      else
        echo "${entry%%:*}: not in $base_ref yet — skipped"
      fi
    done
    targets=()
    for entry in "${gated[@]}"; do targets+=(--target "${entry#*:}"); done
    cmake --build "$base_dir/build" -j "${targets[@]}" >/dev/null
    rel_dir="$repo_root/build-rel-gate"
    cmake -B "$rel_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release >/dev/null
    cmake --build "$rel_dir" -j "${targets[@]}" >/dev/null
    # run_gated <side> <build dir> <id> <bench>: writes $tmp/<side>_<id>.*
    run_gated() {
      local out="$tmp/${1}_${3}" extra=()
      case "$3" in
        E9|E10|E15) extra=(--seed 233) ;;
        E12) extra=(--trace "$out.trace.json" --pcap "$out.pcap") ;;
        E16) extra=("${e16_flags[@]}") ;;
        E17) extra=(--seed 563 --csv "$out.csv") ;;
      esac
      "$2/bench/$4" "${extra[@]}" --json "$out.json" >/dev/null
    }
    for entry in "${gated[@]}"; do
      id="${entry%%:*}" bin="${entry#*:}"
      run_gated base "$base_dir/build" "$id" "$bin"
      run_gated head "$rel_dir" "$id" "$bin"
      cmp "$tmp/base_$id.json" "$tmp/head_$id.json"
      case "$id" in
        E12) cmp "$tmp/base_E12.trace.json" "$tmp/head_E12.trace.json"
             cmp "$tmp/base_E12.pcap" "$tmp/head_E12.pcap" ;;
        E17) cmp "$tmp/base_E17.csv" "$tmp/head_E17.csv" ;;
      esac
      echo "$id: identical to $base_ref"
    done
  else
    echo "tree matches $base_ref (or no baseline ref) — nothing to compare"
  fi
fi

echo
echo "check.sh: all gates passed"
