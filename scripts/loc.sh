#!/usr/bin/env bash
# Net Rust line count: the lines added, removed and net in crates/,
# tests/ and examples/ between BASE and the working tree (files not yet
# added to git count as added), plus the current total.
#
#   scripts/loc.sh [BASE]      # BASE defaults to HEAD~1
set -euo pipefail
cd "$(dirname "$0")/.."
base="${1:-HEAD~1}"
specs=(':(glob)crates/**/*.rs' ':(glob)tests/**/*.rs' ':(glob)examples/**/*.rs')

read -r added removed < <(
    {
        git diff --numstat "$base" -- "${specs[@]}"
        git ls-files --others --exclude-standard -- "${specs[@]}" |
            while read -r f; do printf '%s\t0\t%s\n' "$(wc -l < "$f")" "$f"; done
    } | awk '{ a += $1; d += $2 } END { print a + 0, d + 0 }'
)
total=$(
    git ls-files --cached --others --exclude-standard -- "${specs[@]}" |
        while read -r f; do [ -f "$f" ] && cat "$f"; done | wc -l
)

echo "Rust lines in crates/, tests/ and examples/ against $base:"
echo "  added   $added"
echo "  removed $removed"
echo "  net     $((added - removed))"
echo "  total   $total"
