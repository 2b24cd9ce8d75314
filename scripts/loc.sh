#!/usr/bin/env bash
# Code size as a number: non-blank lines that are not `//` comments (doc
# comments included), per crate under crates/, with `src/` counted apart
# from the rest (`tests/`, `benches/`). Unit-test modules inside `src/`
# count as src.
#
#   scripts/loc.sh [--json] [ROOT]    # ROOT defaults to the repository root
#
# --json prints the same counts as the document committed in
# results/SIZE.json, which ci.sh compares against a fresh count.
set -euo pipefail
json=false
if [ "${1:-}" = "--json" ]; then
  json=true
  shift
fi
root="${1:-$(dirname "$0")/..}"
count() {
  if [ -d "$1" ]; then
    find "$1" -name '*.rs' -print0 | xargs -0 -r cat \
      | grep -cvE '^[[:space:]]*(//.*)?$' || true
  else
    echo 0
  fi
}
if $json; then
  printf '{\n  "schema": "kmatch.size/v1",\n  "crates": {\n'
else
  printf '%-14s %7s %7s %7s\n' crate src tests total
fi
sum_src=0 sum_tests=0 sep=""
for dir in "$root"/crates/*/; do
  name="$(basename "$dir")"
  src="$(count "$dir/src")"
  tests=0
  for other in "$dir"tests "$dir"benches; do
    tests=$((tests + $(count "$other")))
  done
  if $json; then
    printf '%s    "%s": {"src_lines": %d, "test_lines": %d}' "$sep" "$name" "$src" "$tests"
    sep=$',\n'
  else
    printf '%-14s %7d %7d %7d\n' "$name" "$src" "$tests" $((src + tests))
  fi
  sum_src=$((sum_src + src))
  sum_tests=$((sum_tests + tests))
done
if $json; then
  printf '\n  },\n  "total": {"src_lines": %d, "test_lines": %d, "lines": %d}\n}\n' \
    "$sum_src" "$sum_tests" $((sum_src + sum_tests))
else
  printf '%-14s %7d %7d %7d\n' total "$sum_src" "$sum_tests" $((sum_src + sum_tests))
fi
