#!/bin/sh
# Table 8-style lines-of-code breakdown of this repository: one row per
# src/ component (taken from the src/*/ directory list, so a new
# component cannot be left out), then tests, bench and examples.
#
# Usage: scripts/loc_report.sh [CHECKOUT]   (default: this checkout)
# Run it on two checkouts and subtract to get a change's net LOC delta.
cd "${1:-$(dirname "$0")/..}" || exit 1
count() {
  find "$@" -type f \( -name '*.h' -o -name '*.cpp' -o -name '*.c' \) \
    -exec cat {} + | wc -l
}
echo "component            lines"
for d in src/*/ tests bench examples; do
  printf "%-18s %7d\n" "${d%/}" "$(count "$d")"
done
printf "%-18s %7d\n" "total" "$(count src tests bench examples)"
