#!/usr/bin/env bash
# Builds and runs the test suite under BOTH ThreadSanitizer and
# Address+UBSanitizer in one invocation (the qesd runtime and the obs
# layer are concurrent; sanitizer-cleanliness is an acceptance
# criterion, not a nice-to-have). Both trees build with -DQES_WERROR=ON,
# so a new compiler warning fails the run too.
#
# The obs label covers the whole scrape plane: the HTTP exporter smoke
# tests (live /metrics scrapes against the runtime server and the
# cluster), the multi-producer TraceRing stress, the exposition linter,
# spans, and the qesd/qes_cluster driver smokes that bind ephemeral
# scrape ports — so `-L obs` under TSan exercises the exporter thread
# against concurrent serving traffic. It also carries the hot-path
# telemetry plane added with the shard subsystem: the ShardSet
# single-writer fold/seqlock-window stress, the FlightRecorder
# concurrent record/dump stress, and the attribution-vs-RunStats
# reconciliation tests — the default invocation (no arguments) runs
# `ctest -L obs` under TSan as part of the full suite, which is the
# only automated proof of the relaxed/acquire-release pairings in
# docs/ARCHITECTURE.md's memory-order table for those rings.
#
# The net label covers the wire plane: frame codec, the epoll ingress
# (binary + HTTP adapters, shed reconciliation against the runtime
# server), the loadgen end-to-end loopback run, and the qesd/qes_loadgen
# process-level smoke — `-L net` under TSan races the ingress workers,
# the trigger thread's completion forwarding, and the generator.
#
# The runq label covers the lock-free per-core execution substrate
# (src/runq/, docs/ARCHITECTURE.md "Hot path"): the bounded MPSC
# admission ring's capacity and FIFO contracts, the steal protocol's
# exactly-once ledger accounting, the seqlock PlanCell's torn-read
# rejection, the multi-producer/stealer stress suite, and the runtime
# reconciliation test that crosses the wire plane with the ring ledgers.
# Because the substrate is built from raw atomics (no mutexes on the hot
# path), `-L runq` under ThreadSanitizer is MANDATORY before touching
# any file in src/runq/ — TSan is the only automated check of the
# acquire/release pairings the memory-order table documents.
#
# The power label covers the static-power & sleep-state plane: the
# PowerModel C-state unit tests (speed_for_power clamp, break-even and
# critical-speed closed forms), the race-to-idle decision guard rails
# and the live attribution reconciliation in power_policy_test, and the
# randomized sim/runtime/cluster total-energy differential at 1e-9 in
# power_differential_test. The sleep word itself (PlanCell's CoreState,
# which the qesd workers read to doze instead of idle-polling) rides the
# seqlock inside src/runq/, so concurrency changes there fall under the
# runq label's mandatory-TSan rule; `-L power` under both sanitizers
# sweeps the residency integration and the race re-timing paths.
#
# The scenario label covers the declarative scenario matrix
# (docs/SCENARIOS.md): the JSON spec parser's malformed-input suite, the
# curated small-N sub-matrix in scenario_matrix_test (every arrival
# regime, substrate, and chaos operation with the conservation / power-
# cap / QE-OPT invariants as hard assertions), and the qes_scenarios
# smoke cells — so `-L scenario` under ASan+UBSan sweeps the calendar-
# queue event core and the chaos redistribution path for memory errors.
#
#   $ scripts/ci_sanitize.sh                     # both sanitizers, all tests
#   $ scripts/ci_sanitize.sh -L obs              # both, obs+runtime suite only
#   $ scripts/ci_sanitize.sh -L cluster          # both, multi-node cluster suite
#   $ scripts/ci_sanitize.sh -L policy           # both, DES planner kernel suite
#   $ scripts/ci_sanitize.sh -L net              # both, wire-plane suite
#   $ scripts/ci_sanitize.sh -L runq             # both, lock-free substrate
#   $ scripts/ci_sanitize.sh thread -L runq      # TSan runq (mandatory for
#                                                #   src/runq/ changes)
#   $ scripts/ci_sanitize.sh -L scenario         # both, scenario-matrix suite
#   $ scripts/ci_sanitize.sh -L power            # both, energy-model suite
#   $ scripts/ci_sanitize.sh thread              # just TSan
#   $ scripts/ci_sanitize.sh address -R runtime  # one sanitizer + ctest args
set -euo pipefail
cd "$(dirname "$0")/.."

# The planner kernel headers, the energy ledger, the job store and the
# budget broker are the contracts every execution plane builds against
# (sim adapter, qesd runtime, cluster lockstep, live cluster), so each
# must compile as its own translation unit — no hidden include-order
# dependencies.
echo "=== shared header self-containment ==="
tu="$(mktemp --suffix=.cpp)"
trap 'rm -f "${tu}"' EXIT
for hpp in src/policy/*.hpp src/obs/energy_ledger.hpp src/obs/job_store.hpp \
           src/cluster/budget_broker.hpp; do
  echo "  ${hpp}"
  printf '#include "%s"\n' "${hpp#src/}" > "${tu}"
  "${CXX:-c++}" -std=c++20 -fsyntax-only -Isrc "${tu}"
done

# Energy integration hits only one file (src/obs/energy_ledger.hpp): the
# planes call the ledger and hold no static, sleep or wake arithmetic of
# their own.
echo "=== energy arithmetic only in the ledger ==="
if grep -nF -e sleep_power -e wake_energy_j -e power_model.b \
     src/sim/engine.cpp src/runtime/core.cpp; then
  echo "energy arithmetic outside obs::EnergyLedger (see above)" >&2
  exit 1
fi

# A leading `thread` or `address` selects a single sanitizer; any other
# first argument (or none) runs both, and every remaining argument is
# forwarded to ctest verbatim.
case "${1:-}" in
  thread|address) sanitizers=("$1"); shift ;;
  *) sanitizers=(thread address) ;;
esac

for san in "${sanitizers[@]}"; do
  build="build-${san}san"
  echo "=== ${san} sanitizer -> ${build} ==="
  # GCC's -Wtsan flags every std::atomic_thread_fence, which TSan does not
  # model (the ShardSet and FlightRecorder seqlocks use fences): it stays
  # a warning there; every other warning fails the build.
  extra=()
  if [[ "${san}" == thread ]]; then extra=(-DCMAKE_CXX_FLAGS=-Wno-error=tsan); fi
  cmake -B "${build}" -S . -DQES_SANITIZE="${san}" -DQES_WERROR=ON \
    "${extra[@]}" -DQES_BUILD_BENCH=OFF -DQES_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build "${build}" -j "$(nproc)"
  (cd "${build}" && ctest --output-on-failure -j "$(nproc)" "$@")
done
echo "=== sanitizers clean ==="
