#!/usr/bin/env bash
# Bench gate: re-run the end-to-end campaign throughput bench on a budget
# ladder and fail on a feedback-stage-share, throughput or slope regression
# against the checked-in baseline report (BENCH_throughput.json at the repo
# root).
#
# What is gated, and why these thresholds:
#   * serial feedback share at 200k units — the absolute acceptance bar is
#     30% of wall time; the gate also allows baseline+5pp so a noisy runner
#     never fails a baseline that is already well under the bar.
#   * parallel feedback share at 200k units — baseline+7pp (worker
#     contention makes this number noisier than the serial one).
#   * serial execs/s at 200k units — at least 0.6x the baseline. Stage
#     *shares* transfer across machines; absolute execs/s do not, so this
#     floor only catches order-of-magnitude regressions (the bug class that
#     motivated the gate was a 4x slowdown, comfortably caught at 0.6x).
#   * ladder slope — serial execs/s at the top rung must be at least 0.7x
#     serial execs/s at 200k units. Costs that grow with campaign length are
#     invisible at a single small budget: sequence-store saturation once
#     dropped serial throughput to 0.25x-0.34x between 200k and 1.6M
#     units. Both numbers come from the same run on the same machine, so
#     the ratio transfers across machines.
#   * parallel speedup >= 2.0x at 3 workers and 200k units — only enforced
#     when the runner actually has >= 4 cores (3 workers + coordinator). On
#     fewer cores the workers time-slice one another and the ceiling is the
#     core count, so the gate records the core count and skips instead of
#     lying.
#
# Usage: scripts/check_bench_gate.sh [path-to-bench_throughput]
#        (default: target/release/bench_throughput — build with
#         cargo build --release -p lego-bench --bin bench_throughput)
#        BENCH_GATE_LADDER overrides the rungs (default "200000 800000
#        1600000"); the first rung must be 200000.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
bench="${1:-$root/target/release/bench_throughput}"
baseline="$root/BENCH_throughput.json"
read -r -a ladder <<< "${BENCH_GATE_LADDER:-200000 800000 1600000}"
base_units=200000
top_units="${ladder[${#ladder[@]}-1]}"

command -v jq >/dev/null || { echo "check_bench_gate: jq not found" >&2; exit 1; }
[[ -x "$bench" ]] || {
  echo "check_bench_gate: $bench not found; build with: cargo build --release -p lego-bench --bin bench_throughput" >&2
  exit 1
}
[[ -f "$baseline" ]] || { echo "check_bench_gate: no baseline at $baseline" >&2; exit 1; }
[[ "${ladder[0]}" == "$base_units" ]] || {
  echo "check_bench_gate: the ladder must start at $base_units units (got ${ladder[0]})" >&2; exit 1; }

cores=$(nproc)
work=$(mktemp -d)
# The bench binary writes its report over the baseline path, so stash the
# checked-in baseline first and always restore it.
cp "$baseline" "$work/baseline.json"
restore() { cp "$work/baseline.json" "$baseline"; rm -rf "$work"; }
trap restore EXIT

echo "check_bench_gate: $cores core(s), ladder ${ladder[*]} units"
"$bench" "${ladder[@]}" --workers 3
cp "$baseline" "$work/fresh.json"

row() { # <file> <units> <serial|parallel> <jq path> -> value from that row
  local sel='.workers == 1'
  [[ "$3" == "parallel" ]] && sel='.workers > 1'
  jq -r ".rows[] | select(.budget_units == $2 and $sel) | $4" "$work/$1.json"
}
share() { # <file> <serial|parallel> -> feedback share_pct at 200k units
  row "$1" "$base_units" "$2" '.stage_profile.stages[] | select(.stage == "feedback") | .share_pct'
}

base_serial_share=$(share baseline serial)
base_parallel_share=$(share baseline parallel)
base_serial_eps=$(row baseline "$base_units" serial .execs_per_sec)
fresh_serial_share=$(share fresh serial)
fresh_parallel_share=$(share fresh parallel)
fresh_serial_eps=$(row fresh "$base_units" serial .execs_per_sec)
fresh_top_eps=$(row fresh "$top_units" serial .execs_per_sec)
fresh_speedup=$(row fresh "$base_units" parallel .speedup)
for v in "$base_serial_share" "$base_parallel_share" "$base_serial_eps" "$fresh_serial_share" \
         "$fresh_parallel_share" "$fresh_serial_eps" "$fresh_top_eps" "$fresh_speedup"; do
  [[ -n "$v" && "$v" != "null" ]] || {
    echo "check_bench_gate: a report lacks a ladder row this gate reads" >&2; exit 1; }
done

fail=0
check() { # <label> <ok:0/1> <detail>
  if [[ "$2" == "1" ]]; then echo "  PASS  $1 ($3)"; else echo "  FAIL  $1 ($3)"; fail=1; fi
}

serial_ceil=$(jq -n "[30, $base_serial_share + 5] | max")
ok=$(jq -n "($fresh_serial_share <= $serial_ceil) | if . then 1 else 0 end")
check "serial feedback share" "$ok" \
  "$(printf '%.1f%% vs ceiling %.1f%%' "$fresh_serial_share" "$serial_ceil")"

parallel_ceil=$(jq -n "[35, $base_parallel_share + 7] | max")
ok=$(jq -n "($fresh_parallel_share <= $parallel_ceil) | if . then 1 else 0 end")
check "parallel feedback share" "$ok" \
  "$(printf '%.1f%% vs ceiling %.1f%%' "$fresh_parallel_share" "$parallel_ceil")"

eps_floor=$(jq -n "$base_serial_eps * 0.6")
ok=$(jq -n "($fresh_serial_eps >= $eps_floor) | if . then 1 else 0 end")
check "serial execs/s" "$ok" \
  "$(printf '%.0f vs floor %.0f (baseline %.0f)' "$fresh_serial_eps" "$eps_floor" "$base_serial_eps")"

slope=$(jq -n "$fresh_top_eps / $fresh_serial_eps")
ok=$(jq -n "($slope >= 0.7) | if . then 1 else 0 end")
check "serial ladder slope" "$ok" \
  "$(printf '%.0f execs/s at %s units = %.2fx of %.0f at %s, floor 0.70x' \
     "$fresh_top_eps" "$top_units" "$slope" "$fresh_serial_eps" "$base_units")"

if (( cores >= 4 )); then
  ok=$(jq -n "($fresh_speedup >= 2.0) | if . then 1 else 0 end")
  check "3-worker speedup" "$ok" "$(printf '%.2fx vs floor 2.00x' "$fresh_speedup")"
else
  echo "  SKIP  3-worker speedup ($cores core(s) < 4: the workers time-slice," \
       "measured $(printf '%.2fx' "$fresh_speedup"))"
fi

if [[ -n "${GITHUB_STEP_SUMMARY:-}" ]]; then
  {
    echo "### Bench gate ($cores cores, ladder ${ladder[*]} units)"
    echo ""
    echo "| Metric | Baseline | Fresh |"
    echo "| --- | --- | --- |"
    printf '| serial feedback share | %.1f%% | %.1f%% |\n' "$base_serial_share" "$fresh_serial_share"
    printf '| parallel feedback share | %.1f%% | %.1f%% |\n' "$base_parallel_share" "$fresh_parallel_share"
    printf '| serial execs/s | %.0f | %.0f |\n' "$base_serial_eps" "$fresh_serial_eps"
    printf '| serial execs/s at %s units | — | %.0f (%.2fx) |\n' "$top_units" "$fresh_top_eps" "$slope"
    printf '| 3-worker speedup | — | %.2fx |\n' "$fresh_speedup"
  } >> "$GITHUB_STEP_SUMMARY"
fi

exit "$fail"
