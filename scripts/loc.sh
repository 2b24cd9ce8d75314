#!/usr/bin/env bash
# Code size as a number: non-blank lines that are not `//` comments (doc
# comments included), per crate under crates/, with `src/` counted apart
# from the rest (`tests/`, `benches/`). Unit-test modules inside `src/`
# count as src.
#
#   scripts/loc.sh [ROOT]    # ROOT defaults to the repository root
set -euo pipefail
root="${1:-$(dirname "$0")/..}"
count() {
  if [ -d "$1" ]; then
    find "$1" -name '*.rs' -print0 | xargs -0 -r cat \
      | grep -cvE '^[[:space:]]*(//.*)?$' || true
  else
    echo 0
  fi
}
printf '%-14s %7s %7s %7s\n' crate src tests total
sum_src=0 sum_tests=0
for dir in "$root"/crates/*/; do
  name="$(basename "$dir")"
  src="$(count "$dir/src")"
  tests=0
  for other in "$dir"tests "$dir"benches; do
    tests=$((tests + $(count "$other")))
  done
  printf '%-14s %7d %7d %7d\n' "$name" "$src" "$tests" $((src + tests))
  sum_src=$((sum_src + src))
  sum_tests=$((sum_tests + tests))
done
printf '%-14s %7d %7d %7d\n' total "$sum_src" "$sum_tests" $((sum_src + sum_tests))
