#!/usr/bin/env bash
# Checks that every relative markdown link in README.md, ROADMAP.md and
# docs/*.md points at a file (or directory) that exists in the repository,
# and that every `*.md` path named in a Rust doc comment (`//!` or `///`)
# under crates/, src/, tests/ and examples/ exists relative to the
# repository root. No network access: external (http/https/mailto) links
# and pure #anchors are skipped. Exits non-zero listing every broken link.
#
# Usage: scripts/check-doc-links.sh   (from the repository root)
set -u

fail=0
checked=0

check_file() {
    local doc="$1"
    local dir
    dir="$(dirname "$doc")"
    # Extract inline markdown link targets: [text](target). One per line;
    # images ![alt](target) are matched by the same pattern tail.
    local targets
    targets="$(grep -o '\[[^]]*\]([^)]*)' "$doc" | sed 's/.*(\(.*\))/\1/')"
    while IFS= read -r target; do
        [ -z "$target" ] && continue
        case "$target" in
            http://*|https://*|mailto:*) continue ;;   # external: skipped
            \#*) continue ;;                           # same-file anchor
        esac
        # Strip a trailing #section anchor from relative links.
        local path="${target%%#*}"
        [ -z "$path" ] && continue
        checked=$((checked + 1))
        if [ ! -e "$dir/$path" ]; then
            echo "BROKEN: $doc -> $target"
            fail=1
        fi
    done <<< "$targets"
}

for doc in README.md ROADMAP.md docs/*.md; do
    if [ ! -f "$doc" ]; then
        echo "BROKEN: expected document $doc is missing"
        fail=1
        continue
    fi
    check_file "$doc"
done

# Rust doc comments name documents by their repository-root path.
while IFS=: read -r file line text; do
    for path in $(grep -oE '[A-Za-z0-9_./-]+\.md\b' <<< "$text"); do
        checked=$((checked + 1))
        if [ ! -e "$path" ]; then
            echo "BROKEN: $file:$line -> $path"
            fail=1
        fi
    done
done < <(grep -rnE --include='*.rs' '^[[:space:]]*//[/!]' crates src tests examples)

if [ "$fail" -ne 0 ]; then
    echo "doc link check FAILED"
    exit 1
fi
echo "doc link check OK ($checked relative links resolved)"
