#!/usr/bin/env bash
# Byte-identity guard for refactors: runs the deterministic simulated
# surfaces on revision REV and on this working tree and diffs the outputs.
#
#   scripts/same-outputs.sh REV      # e.g. HEAD~1
#
# REV is exported with `git archive` into a temporary directory (under
# $TMPDIR, removed on exit) and built there.  Both trees run
#   - experiments all --scale 0.02 --max-procs 16 (.txt, .csv and stdout),
#   - the 64-proc head probes of ablation-elimination, ablation-lockfree
#     and duplicate-heavy (stdout),
#   - check.exe --seeds 10, --broken all --seeds 10 and --blocking --seeds 10
#     (stdout and exit status).  A mutant caught by an assertion prints
#     the assertion's source position; line and column numbers in those
#     positions are masked, since a refactor moves them without changing
#     behaviour (the file name is kept).
# Prints `diff -r` of the two output trees and exits 1 on any difference.
set -euo pipefail

rev=${1:?usage: scripts/same-outputs.sh REV}
root=$(git rev-parse --show-toplevel)
commit=$(git -C "$root" rev-parse --verify "$rev^{commit}")
work=$(mktemp -d "${TMPDIR:-/tmp}/same-outputs.XXXXXX")
trap 'rm -rf "$work"' EXIT

mkdir "$work/tree"
git -C "$root" archive "$commit" | tar -x -C "$work/tree"

# outputs TREE OUT: builds TREE and writes every guarded output under OUT.
outputs() {
  local tree=$1 out=$2
  mkdir -p "$out/all"
  (cd "$tree" && dune build --root . --display quiet bin/experiments.exe bin/check.exe)
  local bin="$tree/_build/default/bin"
  "$bin/experiments.exe" all --scale 0.02 --max-procs 16 --quiet -o "$out/all" \
    > "$out/all.stdout"
  "$bin/experiments.exe" ablation-elimination ablation-lockfree duplicate-heavy \
    --scale 0.005 --max-procs 64 --quiet > "$out/head-probes-64.stdout"
  local name args
  for name in check check-broken check-blocking; do
    case $name in
      check) args=() ;;
      check-broken) args=(--broken all) ;;
      check-blocking) args=(--blocking) ;;
    esac
    local status=0
    "$bin/check.exe" "${args[@]}" --seeds 10 > "$out/$name.raw" || status=$?
    sed -E 's/(File "[^"]*"), line [0-9]+, characters [0-9]+-[0-9]+/\1, line _, characters _/' \
      "$out/$name.raw" > "$out/$name.txt"
    rm "$out/$name.raw"
    echo "exit $status" >> "$out/$name.txt"
  done
}

echo "== $rev ($commit)"
outputs "$work/tree" "$work/out-rev"
echo "== working tree"
outputs "$root" "$work/out-tree"

if diff -r "$work/out-rev" "$work/out-tree"; then
  echo "same-outputs: no difference against $rev"
else
  echo "same-outputs: outputs differ from $rev" >&2
  exit 1
fi
