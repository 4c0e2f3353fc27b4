#!/usr/bin/env bash
# Bit-identity gate for protocol refactors. The relay-core contract is that
# restructuring never changes protocol behaviour: one --quick run of every
# figure and table bench (fig3, fig4, fig5, fig7, fig8, table1, both
# ablations and the hoarder extension) must produce byte-identical tables at
# HEAD and at the base revision. The bandwidth ablation's byte-budgeted
# contacts make it the one table whose outcomes depend on the size and order
# of every wire charge, so it catches accounting drift that the
# unlimited-contact figures cannot; the mechanism ablation covers PoM
# dissemination by gossip vs instant broadcast. Hoarders pass every test by
# storage proof, so ext_hoarders' heavy-HMAC bill pins the energy model's
# two-sided charge for every proof, however the simulator decides it.
# Four traced g2gsim runs must also write byte-identical --trace-out JSONL,
# compared by sha256. The two G2G runs (Epidemic vs 10 droppers, Delegation
# Last-Contact vs 10 cheaters) pin every storage challenge, test verdict and
# PoM in order, which the tables only summarize. The two vanilla runs
# (Epidemic vs 10 droppers, Delegation Last-Contact) pin the order in which
# offer_all relays buffered messages, which the trace records hop by hop.
#
#   tools/bit_identity.sh [base-ref]   # default: merge-base with origin/main
#
# Exits 0 with a notice when no base revision exists to compare against
# (fresh clone, first commit, base predates the benches).
set -euo pipefail
cd "$(dirname "$0")/.."
jobs=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)

benches=(fig3_droppers_epidemic fig4_detection_g2g_epidemic fig5_deviations_delegation
         fig7_detection_g2g_delegation fig8_cost_tradeoff table1_delegation_detection
         ablation_bandwidth ablation_mechanisms ext_hoarders)
# name:g2gsim arguments, one traced run each
traced=("epidemic_dropper:--protocol g2g-epidemic --deviation dropper --deviants 10"
        "delegation_lc_cheater:--protocol g2g-delegation-lc --deviation cheater --deviants 10"
        "vanilla_epidemic_dropper:--protocol epidemic --deviation dropper --deviants 10"
        "vanilla_delegation_lc:--protocol delegation-lc")

base="${1:-}"
if [[ -z "$base" ]]; then
  if git rev-parse -q --verify origin/main >/dev/null 2>&1; then
    base=$(git merge-base HEAD origin/main)
  else
    base=$(git rev-parse -q --verify 'HEAD~1^{commit}' 2>/dev/null || true)
  fi
fi
if [[ -z "$base" ]] || ! git rev-parse -q --verify "$base^{commit}" >/dev/null 2>&1; then
  echo "bit-identity: no base revision to compare against (ref '${1:-auto}'); skipping"
  exit 0
fi
base=$(git rev-parse "$base^{commit}")
head=$(git rev-parse HEAD)
if [[ "$base" == "$head" ]]; then
  echo "bit-identity: base == HEAD ($head); nothing to compare, skipping"
  exit 0
fi
echo "bit-identity: comparing HEAD ($head) against base ($base)"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# build_and_run <src-dir> <build-dir> <out-dir>
build_and_run() {
  local src=$1 build=$2 out=$3
  cmake -B "$build" -S "$src" -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$build" -j "$jobs" --target "${benches[@]}" g2gsim >/dev/null
  mkdir -p "$out"
  local b t
  for b in "${benches[@]}"; do
    "$build/bench/$b" --quick >"$out/$b.txt"
  done
  for t in "${traced[@]}"; do
    # shellcheck disable=SC2086  # the arguments are word-split on purpose
    "$build/examples/g2gsim" ${t#*:} --trace-out "$out/${t%%:*}.jsonl" >/dev/null 2>&1
    sha256sum <"$out/${t%%:*}.jsonl" >"$out/${t%%:*}.jsonl.sha256"
    rm "$out/${t%%:*}.jsonl"
  done
}

echo "== HEAD build + runs =="
build_and_run . build-bitid "$tmp/out-head"

echo "== base build + runs =="
mkdir -p "$tmp/base"
git archive "$base" | tar -x -C "$tmp/base"
if ! build_and_run "$tmp/base" "$tmp/build-base" "$tmp/out-base"; then
  echo "bit-identity: base revision $base does not build the benches; skipping"
  exit 0
fi

fail=0
for f in "$tmp/out-head"/*; do
  name=$(basename "$f")
  if ! diff -u "$tmp/out-base/$name" "$f"; then
    echo "bit-identity: MISMATCH in $name"
    fail=1
  fi
done
if [[ $fail -ne 0 ]]; then
  echo "bit-identity: FAILED — protocol output changed relative to $base"
  exit 1
fi
echo "bit-identity: ok — ${#benches[@]} benches and ${#traced[@]} traced runs identical"
