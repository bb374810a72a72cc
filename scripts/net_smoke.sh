#!/usr/bin/env bash
# Loopback end-to-end smoke for the wire plane: start qesd with an
# ephemeral --listen-port and zero in-process producers, drive it with
# qes_loadgen, and reconcile the generator's view against the server's —
# every SUBMIT must come back as exactly one REPLY (lost == 0), and the
# replies the generator classified as admitted must equal the jobs the
# runtime finalized (replies - shed == jobs_total).
#
#   $ scripts/net_smoke.sh build/tools/qesd build/tools/qes_loadgen
#
# Env knobs: NET_SMOKE_RATE (req/s, default 2000), NET_SMOKE_SECONDS
# (send window, default 2).
set -euo pipefail

QESD="${1:?usage: net_smoke.sh <qesd> <qes_loadgen>}"
LOADGEN="${2:?usage: net_smoke.sh <qesd> <qes_loadgen>}"
RATE="${NET_SMOKE_RATE:-2000}"
SECONDS_SEND="${NET_SMOKE_SECONDS:-2}"

workdir="$(mktemp -d)"
qesd_pid=""
# On a failed exit (set -e stops at a qes_loadgen or qesd that exits
# non-zero, before anything is printed) show what both processes wrote
# before the work directory goes.
cleanup() {
  local status=$?
  [[ -n "${qesd_pid}" ]] && kill "${qesd_pid}" 2>/dev/null || true
  if [[ "${status}" -ne 0 ]]; then
    for f in qesd.out qesd.err loadgen.out; do
      [[ -f "${workdir}/${f}" ]] || continue
      echo "net_smoke: --- ${f} ---" >&2
      cat "${workdir}/${f}" >&2
    done
  fi
  rm -rf "${workdir}"
}
trap cleanup EXIT

# The server run is longer than the send window so the drain starts only
# after every scheduled request has been submitted.
"${QESD}" --duration-s $((SECONDS_SEND + 3)) --time-scale 1 \
  --producers 0 --listen-port 0 --arrival-rate 100 \
  --cores 8 --budget 160 --metrics-interval-ms 500 \
  > "${workdir}/qesd.out" 2> "${workdir}/qesd.err" &
qesd_pid=$!

# qesd prints `listen {"port": N}` once the ingress is mounted.
port=""
for _ in $(seq 1 100); do
  port="$(sed -n 's/^listen {"port": \([0-9]*\)}$/\1/p' "${workdir}/qesd.out")"
  [[ -n "${port}" ]] && break
  if ! kill -0 "${qesd_pid}" 2>/dev/null; then
    echo "net_smoke: qesd exited before binding" >&2
    cat "${workdir}/qesd.err" >&2
    exit 1
  fi
  sleep 0.1
done
if [[ -z "${port}" ]]; then
  echo "net_smoke: qesd never printed its listen port" >&2
  exit 1
fi

"${LOADGEN}" --port "${port}" --rate "${RATE}" \
  --duration-s "${SECONDS_SEND}" --connections 4 --seed 7 \
  > "${workdir}/loadgen.out"
cat "${workdir}/loadgen.out"

wait "${qesd_pid}"
qesd_pid=""
cat "${workdir}/qesd.out"

json_field() { # file key -> integer value
  sed -n "s/.*\"$2\": \([0-9]*\).*/\1/p" "$1" | head -n 1
}
submitted="$(json_field "${workdir}/loadgen.out" submitted)"
replies="$(json_field "${workdir}/loadgen.out" replies)"
shed="$(json_field "${workdir}/loadgen.out" shed)"
lost="$(json_field "${workdir}/loadgen.out" lost)"
jobs_total="$(sed -n 's/^final .*"jobs_total": \([0-9]*\).*/\1/p' \
  "${workdir}/qesd.out")"

echo "net_smoke: submitted=${submitted} replies=${replies} shed=${shed}" \
  "lost=${lost} jobs_total=${jobs_total}"
if [[ "${lost}" != 0 ]]; then
  echo "net_smoke: FAILED - ${lost} requests never got a reply" >&2
  exit 1
fi
if [[ "${replies}" != "${submitted}" ]]; then
  echo "net_smoke: FAILED - replies != submitted" >&2
  exit 1
fi
if [[ "$((replies - shed))" != "${jobs_total}" ]]; then
  echo "net_smoke: FAILED - admitted replies != server jobs_total" >&2
  exit 1
fi
echo "net_smoke: OK"
