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
# gate: with resumption and tracing off (the defaults), the gated bench
# artifacts (E1-E5/E9/E10/E11/E12/E14) must be byte-identical to the
# ones a clean checkout of origin/main (or main) produces — new machinery
# must be invisible until switched on. With the crypto offload engine
# (E14), the abuse library, the slab allocator (E16), and the timeseries
# sampler (E17) in the tree, that baseline doubles as the do-no-harm gate:
# those hooks are compiled into every bench binary but never selected by
# the gated configs (the sampler is never attached), so their JSON must
# not move by a byte. The always-on instruments (latency histograms,
# issl.malformed_records, board.resets.<cause>) register lazily, on their
# first event, so they appear in the `metrics` of a bench whose run has
# such an event and nowhere else.
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
  echo "== baseline: new machinery off => gated benches identical to main =="
  # Default-off machinery (resumption, tracing, the engine backend, the
  # timeseries sampler + SLO engine) must be invisible: run the gated
  # benches (E1-E5/E9/E10/E11/E12/E14 —
  # none of whose configs switch the new knobs on) from this tree AND from
  # a pristine main worktree, and require byte-identical JSON. This is the
  # do-no-harm gate — the hardening/observability paths are compiled into
  # every binary here, and merely compiling them in must not move a byte.
  # In particular E1/E9/E11 pin sampler-off byte-identity: the sampler is
  # linked into all three, but no sampler is attached. E2/E3 pin the
  # dcc -> rasm image bytes and cycle counts of the optimization and
  # code-size studies.
  base_ref="origin/main"
  git -C "$repo_root" rev-parse --verify -q "$base_ref" >/dev/null || base_ref="main"
  if git -C "$repo_root" rev-parse --verify -q "$base_ref" >/dev/null &&
     ! git -C "$repo_root" diff --quiet "$base_ref" -- \
         src bench scripts 2>/dev/null; then
    base_dir="$tmp/baseline-src"
    git -C "$repo_root" worktree add --detach "$base_dir" "$base_ref" >/dev/null
    trap 'git -C "$repo_root" worktree remove --force "$base_dir" >/dev/null 2>&1 || true; rm -rf "$tmp"' EXIT
    cmake -B "$base_dir/build" -S "$base_dir" -DCMAKE_BUILD_TYPE=Release >/dev/null
    # A gated bench that the baseline ref predates (a brand-new experiment)
    # has nothing to compare against — skip it rather than fail the build.
    gated=()
    for entry in E1:bench_aes_asm_vs_c E2:bench_optimizations \
                 E3:bench_code_size E4:bench_connections \
                 E5:bench_ssl_throughput E9:bench_fault_soak \
                 E10:bench_crash_soak E11:bench_resumption \
                 E12:bench_trace_audit E14:bench_crypto_offload; do
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
    for entry in "${gated[@]}"; do
      id="${entry%%:*}" bin="${entry#*:}"
      extra=()
      [[ "$id" == E9 || "$id" == E10 ]] && extra=(--seed 233)
      "$base_dir/build/bench/$bin" "${extra[@]}" --json "$tmp/base_$id.json" >/dev/null
      "$rel_dir/bench/$bin" "${extra[@]}" --json "$tmp/head_$id.json" >/dev/null
      cmp "$tmp/base_$id.json" "$tmp/head_$id.json"
      echo "$id: identical to $base_ref"
    done
  else
    echo "tree matches $base_ref (or no baseline ref) — nothing to compare"
  fi
fi

echo
echo "check.sh: all gates passed"
