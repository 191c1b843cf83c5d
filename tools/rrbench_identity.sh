#!/usr/bin/env bash
# Checks that the working tree builds perfbench's `rrbench` into the same
# machine code as <base-ref>.
#
#   tools/rrbench_identity.sh <base-ref>
#
# perfbench normalizes every timing by a reference kernel whose speed moves
# with its link address, so a change that is not meant to touch the
# benchmark should leave `rrbench`'s code and constants byte-identical.
# The script unpacks <base-ref> (git archive) into a scratch directory
# outside the repository, builds `rrbench` there (RelWithDebInfo, as
# perfbench/run.py builds it) and dumps `.text`, `.rodata` and the address
# of `reference_kernel_ms`. It then overlays the working tree's files
# (tracked and untracked, minus ignored ones) onto the same directory,
# rebuilds in the same build directory (paths are embedded in the binary)
# and compares. Exits 0 when all three match, 1 on any difference, 2 on
# a usage or build error. The repository is only read.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: tools/rrbench_identity.sh <base-ref>" >&2
  exit 2
fi
base_ref=$1
repo=$(git rev-parse --show-toplevel)
git -C "$repo" rev-parse --verify --quiet "$base_ref^{commit}" >/dev/null || {
  echo "rrbench_identity: unknown ref '$base_ref'" >&2
  exit 2
}

scratch=$(mktemp -d "${TMPDIR:-/tmp}/rrbench_identity.XXXXXX")
trap 'rm -rf "$scratch"' EXIT
src=$scratch/src
build=$scratch/build
mkdir -p "$src"

# Builds rrbench in $build and writes <label>.text, <label>.rodata and
# <label>.addr into $scratch.
build_and_dump() {
  local label=$1
  echo "rrbench_identity: building $label" >&2
  if ! cmake -S "$src/perfbench" -B "$build" \
         -DCMAKE_BUILD_TYPE=RelWithDebInfo >"$scratch/$label.log" 2>&1 ||
     ! cmake --build "$build" --target rrbench -j 4 \
         >>"$scratch/$label.log" 2>&1; then
    tail -n 30 "$scratch/$label.log" >&2
    echo "rrbench_identity: $label build failed" >&2
    exit 2
  fi
  local binary=$build/rrbench
  objcopy -O binary --only-section=.text "$binary" "$scratch/$label.text"
  objcopy -O binary --only-section=.rodata "$binary" "$scratch/$label.rodata"
  nm -C "$binary" | grep 'reference_kernel_ms' >"$scratch/$label.addr"
}

git -C "$repo" archive "$base_ref" | tar -x -C "$src"
build_and_dump base

# Overlay: copy every working-tree file whose content differs (a fresh
# mtime makes the build pick it up) and delete the base's files that the
# working tree no longer has.
(cd "$repo" && git ls-files -z --cached --others --exclude-standard) |
  while IFS= read -r -d '' path; do
    [[ -f $repo/$path ]] || continue
    printf '%s\n' "$path"
    if ! cmp -s "$repo/$path" "$src/$path"; then
      mkdir -p "$(dirname "$src/$path")"
      cp "$repo/$path" "$src/$path"
    fi
  done | sort >"$scratch/work.files"
(cd "$src" && find . -type f -printf '%P\n') | sort >"$scratch/base.files"
comm -23 "$scratch/base.files" "$scratch/work.files" |
  while IFS= read -r path; do rm -f "$src/$path"; done

build_and_dump work

status=0
for section in text rodata; do
  if cmp -s "$scratch/base.$section" "$scratch/work.$section"; then
    echo ".$section: identical ($(wc -c <"$scratch/work.$section") bytes)"
  else
    echo ".$section: DIFFERS ($(wc -c <"$scratch/base.$section") vs" \
         "$(wc -c <"$scratch/work.$section") bytes)"
    status=1
  fi
done
if cmp -s "$scratch/base.addr" "$scratch/work.addr"; then
  echo "reference_kernel_ms: same address: $(head -n 1 "$scratch/work.addr")"
else
  echo "reference_kernel_ms: MOVED"
  sed 's/^/  base: /' "$scratch/base.addr"
  sed 's/^/  work: /' "$scratch/work.addr"
  status=1
fi
exit $status
