#!/usr/bin/env bash
# Non-test source lines per crate.
#
# A file's non-test lines are the lines above its first `#[cfg(test)]`
# that opens a module body (`#[cfg(test)]` then `mod name {`, optionally
# `pub` or `pub(crate)`), or the whole file when it has none. A
# `#[cfg(test)]` on any other single item (an import, an impl, a
# function) does not end the count.
#
# Counts `crates/*/src/**/*.rs` per crate plus the facade crate's `src/`,
# then the workspace total.
#
# Usage: scripts/nontest-lines.sh [WORKSPACE_ROOT]   (default: this repo)
set -euo pipefail

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"

count() {
    find "$1" -name '*.rs' -print0 | sort -z | xargs -0 -r awk '
        FNR == 1 { if (NR > 1) total += n; n = 0; done = 0; prev = "" }
        done { next }
        prev ~ /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ &&
            /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]+[A-Za-z_0-9]+[[:space:]]*\{/ {
            n--; done = 1; next
        }
        { n++; prev = $0 }
        END { print total + n }'
}

sum=0
for dir in "$root"/crates/*/src "$root"/src; do
    crate="$(basename "$(dirname "$dir")")"
    [ "$dir" = "$root/src" ] && crate="gs3 (facade)"
    lines="$(count "$dir")"
    sum=$((sum + lines))
    printf '%-16s %6d\n' "$crate" "$lines"
done
printf '%-16s %6d\n' workspace "$sum"
