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
# then the workspace total. Given two roots, prints each crate's count in
# both, and the change, for every crate in either.
#
# Usage: scripts/nontest-lines.sh [WORKSPACE_ROOT]   (default: this repo)
#        scripts/nontest-lines.sh OLD_ROOT NEW_ROOT
set -euo pipefail

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

# One `crate lines` row per crate of the workspace at $1, then the total.
table() {
    local sum=0 dir crate lines
    for dir in "$1"/crates/*/src "$1"/src; do
        [ -d "$dir" ] || continue
        crate="$(basename "$(dirname "$dir")")"
        [ "$dir" = "$1/src" ] && crate="gs3 (facade)"
        lines="$(count "$dir")"
        sum=$((sum + lines))
        printf '%s\t%d\n' "$crate" "$lines"
    done
    printf '%s\t%d\n' workspace "$sum"
}

if [ $# -lt 2 ]; then
    table "${1:-$(cd "$(dirname "$0")/.." && pwd)}" | awk -F '\t' '{ printf "%-16s %6d\n", $1, $2 }'
    exit 0
fi

printf '%-16s %6s %6s %6s\n' crate before after delta
# A crate present on one side only counts 0 on the other; rows keep the
# order of first appearance, the workspace total last.
awk -F '\t' '
    FNR == 1 { side++ }
    $1 == "workspace" { total[side] = $2; next }
    !($1 in seen) { seen[$1] = 1; order[++n] = $1 }
    { lines[side, $1] = $2 }
    END {
        for (i = 1; i <= n; i++) {
            c = order[i]
            printf "%-16s %6d %6d %+6d\n", c, lines[1, c], lines[2, c], lines[2, c] - lines[1, c]
        }
        printf "%-16s %6d %6d %+6d\n", "workspace", total[1], total[2], total[2] - total[1]
    }' <(table "$1") <(table "$2")
