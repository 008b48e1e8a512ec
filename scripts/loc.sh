#!/usr/bin/env bash
# Product code lines per file: non-blank, non-comment lines above the file's
# `#[cfg(test)] mod tests` (the whole file when it has none). The number the
# simplicity PRs quote; informational, never fails.
#
#   scripts/loc.sh crates/core/src/metrics.rs crates/core/src/exec/*.rs
set -u
total=0
for path in "$@"; do
    if [ ! -f "$path" ]; then
        printf '%6s  %s\n' "-" "$path (missing)"
        continue
    fi
    n=$(awk '
        /^#\[cfg\(test\)\]/ { pending = 1; next }
        pending && /^mod tests/ { exit }
        { pending = 0 }
        /^[[:space:]]*$/ { next }
        /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }
    ' "$path")
    printf '%6d  %s\n' "$n" "$path"
    total=$((total + n))
done
[ "$#" -gt 1 ] && printf '%6d  total\n' "$total"
exit 0
