#!/usr/bin/env bash
# Does the working tree build the same benchmark code as BASE?
#
#   scripts/same-code.sh BASE      # BASE: any git revision, e.g. HEAD~1
#
# Builds perfbench twice, from a `git archive` of BASE and from a copy of
# the working tree (tracked and untracked, unignored files), one after the
# other at one fixed source path, so the absolute paths the build embeds
# agree. Then compares the `.text`, `.rodata` and `.data.rel.ro` sections
# of the two binaries. Symbol names (`.strtab`) are left out: a doc-only
# edit in a linked crate changes their hashes but no instruction or
# constant. Prints identical or different per section and exits 0 only
# when all three are identical.
#
# Everything it writes goes under ${TMPDIR:-/tmp}/kmatch-same-code, which
# is emptied first; nothing is written inside the repository.
set -euo pipefail
if [ $# -ne 1 ]; then
  echo "usage: $0 BASE" >&2
  exit 2
fi
repo="$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel)"
base="$(git -C "$repo" rev-parse --verify "$1^{commit}")"
work="${TMPDIR:-/tmp}/kmatch-same-code"
src="$work/src"
rm -rf "$work"
mkdir -p "$work"

# build SIDE: build perfbench from $src into $work/target-SIDE and copy
# the binary to $work/perfbench-SIDE.
build() {
  cargo build --offline --release --quiet \
    --manifest-path "$src/perfbench/Cargo.toml" \
    --target-dir "$work/target-$1"
  cp "$work/target-$1/release/perfbench" "$work/perfbench-$1"
}

# Extract with fresh modification times (`-m`), so no build output can
# look newer than the sources it came from.
mkdir "$src"
git -C "$repo" archive "$base" | tar -x -m -C "$src"
build base

rm -rf "$src"
mkdir "$src"
(cd "$repo" && git ls-files -z --cached --others --exclude-standard --deduplicate \
  | while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done \
  | tar -c --null -T - -f -) | tar -x -m -C "$src"
build tree

same=true
for section in .text .rodata .data.rel.ro; do
  for side in base tree; do
    objcopy -O binary --only-section="$section" \
      "$work/perfbench-$side" "$work/$side$section.bin"
  done
  if cmp -s "$work/base$section.bin" "$work/tree$section.bin"; then
    echo "$section: identical"
  else
    echo "$section: different"
    same=false
  fi
done
$same
