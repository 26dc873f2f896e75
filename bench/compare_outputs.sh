#!/usr/bin/env bash
# Byte-identical output check between two builds: runs every figure,
# ablation and diagnostic bench (the spotfi_add_fig_bench targets) and
# every example of both build trees with default arguments, and diffs
# each binary's stdout and exit status.
#
# Usage: bench/compare_outputs.sh <parent-build> <change-build>
#
# Each binary runs in the parent tree, then in the change tree, never
# both at once: some examples write fixed-name directories under TMPDIR,
# which both sides share. Exits 0 when every output matches outside the
# masks below, 1 on any difference, 2 when a binary is missing.
set -euo pipefail

BASE=${1:?usage: compare_outputs.sh <parent-build> <change-build>}
CAND=${2:?usage: compare_outputs.sh <parent-build> <change-build>}

FIG_BENCHES=(fig5_sanitization fig5c_clusters fig7a_office fig7b_nlos
             fig7c_corridor fig8a_aoa fig8b_selection fig9a_apcount
             fig9b_packets ablation_weights ablation_smoothing
             ablation_csi_source crlb_efficiency ablation_estimator
             ablation_modalities diag_office fault_matrix)
EXAMPLES=(quickstart spectrum_explorer lost_device office_tracking
          site_survey ap_outage corrupt_capture flaky_uplink
          crash_recovery)

WORK=$(mktemp -d)
trap 'rm -rf "${WORK}"' EXIT
export TMPDIR="${WORK}/tmp"
mkdir -p "${TMPDIR}"

# Masks: sed expressions applied to both sides before the diff.
MASKS=(
  # ablation_estimator times each estimator with the wall clock.
  -e 's/^per-packet cost: .*/per-packet cost: <wall time>/'
  # Temp-directory paths (crash_recovery's journal, lost_device's traces).
  -e "s|${TMPDIR}|<tmpdir>|g"
)

run() {  # <binary> <out>
  local status=0
  "$1" > "$2" 2> /dev/null || status=$?
  echo "exit status ${status}" >> "$2"
  sed -i "${MASKS[@]}" "$2"
}

differ=0
for target in "${FIG_BENCHES[@]/#/bench/}" "${EXAMPLES[@]/#/examples/}"; do
  for build in "${BASE}" "${CAND}"; do
    if [[ ! -x "${build}/${target}" ]]; then
      echo "missing: ${build}/${target}" >&2
      exit 2
    fi
  done
  name=${target#*/}
  run "${BASE}/${target}" "${WORK}/${name}.parent"
  run "${CAND}/${target}" "${WORK}/${name}.change"
  if diff -u "${WORK}/${name}.parent" "${WORK}/${name}.change" \
       > "${WORK}/${name}.diff"; then
    echo "same    ${target}"
  else
    echo "DIFFERS ${target}"
    head -n 40 "${WORK}/${name}.diff"
    differ=1
  fi
done

if [[ ${differ} -ne 0 ]]; then
  echo "compare_outputs: stdout differs" >&2
  exit 1
fi
echo "compare_outputs: ${#FIG_BENCHES[@]} benches and ${#EXAMPLES[@]}" \
     "examples byte-identical outside the masks"
