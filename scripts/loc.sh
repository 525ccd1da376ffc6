#!/bin/sh
# Non-blank lines of OCaml source (.ml and .mli) per top-level directory,
# plus the total of lib/ + bin/ + bench/ that ROADMAP tracks as a metric.
#
#   scripts/loc.sh            # the working tree
#   scripts/loc.sh REV        # the files committed at a git revision
set -eu
cd "$(dirname "$0")/.."
rev=${1:-}

count() {
  if [ -n "$rev" ]; then
    git ls-tree -r --name-only "$rev" -- "$1" | grep -E '\.mli?$' |
      while read -r f; do git show "$rev:$f"; done
  else
    find "$1" -name '*.ml' -o -name '*.mli' | sort | xargs cat
  fi | grep -c -v '^[[:space:]]*$' || true
}

total=0
for d in lib bin bench perfbench; do
  n=$(count "$d")
  printf '%-14s %6d\n' "$d/" "$n"
  [ "$d" = perfbench ] || total=$((total + n))
done
printf '%-14s %6d\n' "lib+bin+bench" "$total"
