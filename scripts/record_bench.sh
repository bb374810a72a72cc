#!/usr/bin/env bash
# Records the per-PR performance snapshot (ROADMAP item 2): runs the
# replan-kernel latency bench, the cluster weak-scaling bench, the
# wire-plane loopback bench, the end-to-end latency bench (hot-path
# clean: zero worker allocs / mutex locks at steady state, e2e p50/p99/
# p999 at the >=500k req/s loopback floor), and the 10M-job diurnal
# scenario cell, and distills their headline numbers into a single
# BENCH_<tag>.json at the repo root. No jq — the benches print
# fixed-format tables (awk-parsed) or a RESULT_JSON line (lifted
# verbatim).
#
# The e2e bench's RESULT_JSON now carries the per-job attribution
# summary (attributed_energy_j, quality_per_joule) reconciled against
# the ring ledgers inside the bench itself; this script re-parses those
# two fields into a top-level "attribution" block so the headline
# quality-per-joule number survives even a cursory diff of two
# BENCH_<tag>.json snapshots.
#
#   $ scripts/record_bench.sh pr<N>      # writes BENCH_pr<N>.json
#
# The tag is required and must be pr<N>. The e2e regression gate
# compares against the highest-numbered BENCH_pr<M>.json with M < N
# (never file mtimes, which are arbitrary in a fresh clone).
#
# Env: QES_SIM_SECONDS / QES_SEEDS bound the cluster bench's replay
# horizon (defaults below keep the whole script a few minutes on one
# CPU); QES_NET_REQS / QES_NET_RATE tune the wire bench; QES_E2E_RATE /
# QES_E2E_SECONDS tune the e2e bench; QES_SCENARIO_WALL_BUDGET_S gates
# the 10M cell's wall clock and QES_SCENARIO_RSS_BUDGET_MB its peak RSS
# (the streaming engine keeps the cell in O(live window) memory; 0
# disables either gate).
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -ne 1 || ! "$1" =~ ^pr([0-9]+)$ ]]; then
  echo "usage: scripts/record_bench.sh pr<N>   (writes BENCH_pr<N>.json)" >&2
  exit 2
fi
TAG="$1"
TAG_N=$((10#${BASH_REMATCH[1]}))
BENCH_DIR="${BENCH_DIR:-build/bench}"
TOOLS_DIR="${TOOLS_DIR:-build/tools}"
OUT="BENCH_${TAG}.json"
SCENARIO_WALL_BUDGET_S="${QES_SCENARIO_WALL_BUDGET_S:-30}"
SCENARIO_RSS_BUDGET_MB="${QES_SCENARIO_RSS_BUDGET_MB:-512}"

for b in replan_kernel cluster_scaling net_ingress e2e_latency; do
  if [[ ! -x "${BENCH_DIR}/${b}" ]]; then
    echo "record_bench: ${BENCH_DIR}/${b} not built (cmake --build build)" >&2
    exit 1
  fi
done
if [[ ! -x "${TOOLS_DIR}/qes_scenarios" ]]; then
  echo "record_bench: ${TOOLS_DIR}/qes_scenarios not built" >&2
  exit 1
fi

# Baseline for the e2e regression gate: the highest-numbered earlier
# snapshot, by tag number.
baseline=""
baseline_n=-1
for f in BENCH_pr*.json; do
  [[ "${f}" =~ ^BENCH_pr([0-9]+)\.json$ ]] || continue
  n=$((10#${BASH_REMATCH[1]}))
  if (( n < TAG_N && n > baseline_n )); then
    baseline="${f}"
    baseline_n="${n}"
  fi
done
echo "record_bench: writing ${OUT}; e2e baseline ${baseline:-none}"

workdir="$(mktemp -d)"
trap 'rm -rf "${workdir}"' EXIT

echo "=== replan_kernel ==="
"${BENCH_DIR}/replan_kernel" | tee "${workdir}/replan.out"
echo
echo "=== cluster_scaling (QES_SIM_SECONDS=${QES_SIM_SECONDS:-10}," \
  "QES_SEEDS=${QES_SEEDS:-1}) ==="
QES_SIM_SECONDS="${QES_SIM_SECONDS:-10}" QES_SEEDS="${QES_SEEDS:-1}" \
  "${BENCH_DIR}/cluster_scaling" | tee "${workdir}/cluster.out"
echo
echo "=== net_ingress ==="
"${BENCH_DIR}/net_ingress" | tee "${workdir}/net.out"
echo
echo "=== e2e_latency (QES_E2E_RATE=${QES_E2E_RATE:-525000}) ==="
"${BENCH_DIR}/e2e_latency" | tee "${workdir}/e2e.out"
echo
echo "=== scenario: diurnal_10m (wall budget ${SCENARIO_WALL_BUDGET_S}s," \
  "rss budget ${SCENARIO_RSS_BUDGET_MB}MB) ==="
"${TOOLS_DIR}/qes_scenarios" --spec scenarios/diurnal_10m.json \
  | tee "${workdir}/scenario.out"
echo
echo "=== scenario: overnight_trough race-to-idle vs stretch ablation ==="
"${TOOLS_DIR}/qes_scenarios" --spec scenarios/overnight_trough.json \
  | tee "${workdir}/trough_race.out"
"${TOOLS_DIR}/qes_scenarios" --spec scenarios/overnight_trough_stretch.json \
  | tee "${workdir}/trough_stretch.out"
echo

# replan_kernel table: `ready_jobs mean_us best_us refill_allocs ...`
# rows keyed by the load level in column 1.
replan_mean() {
  awk -v jobs="$1" '$1 == jobs { print $2; exit }' "${workdir}/replan.out"
}
replan_8="$(replan_mean 8)"
replan_32="$(replan_mean 32)"
replan_128="$(replan_mean 128)"

# cluster_scaling table: `nodes dispatch norm_quality ...`; take the
# crr row at 1 and 8 nodes as the scaling anchors.
cluster_q() {
  awk -v n="$1" '$1 == n && $2 == "crr" { print $3; exit }' \
    "${workdir}/cluster.out"
}
cluster_q1="$(cluster_q 1)"
cluster_q8="$(cluster_q 8)"

# net_ingress / e2e_latency print their whole result as one RESULT_JSON
# line (the e2e bench exits nonzero itself if the reconciliation or the
# hot-path-clean gates fail, which aborts this script via set -e).
net_json="$(sed -n 's/^RESULT_JSON //p' "${workdir}/net.out" | tail -n 1)"
e2e_json="$(sed -n 's/^RESULT_JSON //p' "${workdir}/e2e.out" | tail -n 1)"

# The e2e RESULT_JSON carries the per-job attribution plane's summary;
# surface the headline pair at the top level (the bench has already
# verified them against the ring ledgers and RunStats to 1e-9).
e2e_energy_j="$(printf '%s\n' "${e2e_json}" \
  | sed -n 's/.*"attributed_energy_j": \([0-9.eE+-]*\).*/\1/p')"
e2e_qpj="$(printf '%s\n' "${e2e_json}" \
  | sed -n 's/.*"quality_per_joule": \([0-9.eE+-]*\).*/\1/p')"

# qes_scenarios prints the cell's row as one RESULT_JSON line; the
# wall-clock and RSS gates enforce the simulation-scale acceptance bar
# (10M jobs, single-threaded, streamed in bounded memory).
scenario_json="$(sed -n 's/^RESULT_JSON //p' "${workdir}/scenario.out" \
  | tail -n 1)"
scenario_wall="$(printf '%s\n' "${scenario_json}" \
  | sed -n 's/.*"run_wall_s": \([0-9.]*\).*/\1/p')"
scenario_rss="$(printf '%s\n' "${scenario_json}" \
  | sed -n 's/.*"peak_rss_mb": \([0-9.]*\).*/\1/p')"

# Race-to-idle acceptance: the trough cell with the sleep state enabled
# must beat the stretch-only ablation on TOTAL energy (energy_j in the
# scenario rows is dynamic + static + wake). The saving is the headline
# number this PR ships.
trough_race_json="$(sed -n 's/^RESULT_JSON //p' "${workdir}/trough_race.out" \
  | tail -n 1)"
trough_stretch_json="$(sed -n 's/^RESULT_JSON //p' \
  "${workdir}/trough_stretch.out" | tail -n 1)"
trough_race_j="$(printf '%s\n' "${trough_race_json}" \
  | sed -n 's/.*"energy_j": \([0-9.eE+-]*\).*/\1/p')"
trough_stretch_j="$(printf '%s\n' "${trough_stretch_json}" \
  | sed -n 's/.*"energy_j": \([0-9.eE+-]*\).*/\1/p')"

for v in replan_8 replan_32 replan_128 cluster_q1 cluster_q8 net_json \
         e2e_json e2e_energy_j e2e_qpj scenario_json scenario_wall \
         scenario_rss trough_race_j trough_stretch_j; do
  if [[ -z "${!v}" ]]; then
    echo "record_bench: failed to parse ${v} from bench output" >&2
    exit 1
  fi
done

if [[ "${SCENARIO_WALL_BUDGET_S}" != "0" ]] &&
   awk -v w="${scenario_wall}" -v b="${SCENARIO_WALL_BUDGET_S}" \
       'BEGIN { exit !(w > b) }'; then
  echo "record_bench: diurnal_10m took ${scenario_wall}s" \
    "(budget ${SCENARIO_WALL_BUDGET_S}s)" >&2
  exit 1
fi

if [[ "${SCENARIO_RSS_BUDGET_MB}" != "0" ]] &&
   awk -v r="${scenario_rss}" -v b="${SCENARIO_RSS_BUDGET_MB}" \
       'BEGIN { exit !(r > b) }'; then
  echo "record_bench: diurnal_10m peaked at ${scenario_rss}MB RSS" \
    "(budget ${SCENARIO_RSS_BUDGET_MB}MB)" >&2
  exit 1
fi

if awk -v r="${trough_race_j}" -v s="${trough_stretch_j}" \
    'BEGIN { exit !(r >= s) }'; then
  echo "record_bench: race-to-idle (${trough_race_j} J) did not beat the" \
    "stretch ablation (${trough_stretch_j} J) on overnight_trough" >&2
  exit 1
fi
trough_saving_pct="$(awk -v r="${trough_race_j}" -v s="${trough_stretch_j}" \
  'BEGIN { printf "%.2f", 100.0 * (s - r) / s }')"
echo "record_bench: race-to-idle saves ${trough_saving_pct}% total energy" \
  "on overnight_trough (${trough_race_j} J vs ${trough_stretch_j} J)"

# End-to-end regression gate: the e2e p99 must stay within
# QES_E2E_REGRESSION_PCT (default 5%) of the baseline snapshot chosen
# above (0 disables; the sleep plumbing rides the worker/trigger hot
# path, so drift shows up here first).
E2E_REGRESSION_PCT="${QES_E2E_REGRESSION_PCT:-5}"
if [[ "${E2E_REGRESSION_PCT}" != "0" && -n "${baseline}" ]]; then
  base_p99="$(sed -n 's/.*"p99_ms": \([0-9.eE+-]*\).*/\1/p' "${baseline}" \
    | head -n 1)"
  new_p99="$(printf '%s\n' "${e2e_json}" \
    | sed -n 's/.*"p99_ms": \([0-9.eE+-]*\).*/\1/p')"
  if [[ -n "${base_p99}" && -n "${new_p99}" ]] &&
     awk -v n="${new_p99}" -v b="${base_p99}" -v t="${E2E_REGRESSION_PCT}" \
         'BEGIN { exit !(n > b * (1.0 + t / 100.0)) }'; then
    echo "record_bench: e2e p99 ${new_p99}ms regressed >${E2E_REGRESSION_PCT}%" \
      "vs ${baseline} (${base_p99}ms)" >&2
    exit 1
  fi
  echo "record_bench: e2e p99 ${new_p99}ms within ${E2E_REGRESSION_PCT}%" \
    "of ${baseline} (${base_p99}ms)"
fi

cat > "${OUT}" <<EOF
{
  "tag": "${TAG}",
  "recorded_utc": "$(date -u +%Y-%m-%dT%H:%M:%SZ)",
  "host": {
    "nproc": $(nproc),
    "kernel": "$(uname -r)"
  },
  "replan_kernel": {
    "mean_us_at_8_jobs": ${replan_8},
    "mean_us_at_32_jobs": ${replan_32},
    "mean_us_at_128_jobs": ${replan_128}
  },
  "cluster_scaling": {
    "sim_seconds": ${QES_SIM_SECONDS:-10},
    "norm_quality_crr_1_node": ${cluster_q1},
    "norm_quality_crr_8_nodes": ${cluster_q8}
  },
  "net_ingress": ${net_json},
  "e2e": ${e2e_json},
  "attribution": {
    "attributed_energy_j": ${e2e_energy_j},
    "quality_per_joule": ${e2e_qpj}
  },
  "scenario": {
    "wall_budget_s": ${SCENARIO_WALL_BUDGET_S},
    "rss_budget_mb": ${SCENARIO_RSS_BUDGET_MB},
    "diurnal_10m": ${scenario_json}
  },
  "race_to_idle": {
    "saving_pct": ${trough_saving_pct},
    "race": ${trough_race_json},
    "stretch": ${trough_stretch_json}
  }
}
EOF
echo "record_bench: wrote ${OUT}"
