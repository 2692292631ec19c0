#!/usr/bin/env bash
# netlines.sh — prints the added, removed and net lines of non-test Go
# code between BASE and the working tree, untracked files included.
# _test.go files and anything under a testdata/ directory are excluded.
# BASE defaults to the merge-base of HEAD with origin/main. Used by
# `make netlines`, e.g. `make netlines BASE=HEAD~1`.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
base="${BASE:-$(git merge-base HEAD origin/main)}"

counted() {
    case "$1" in
    *_test.go | testdata/* | */testdata/*) return 1 ;;
    *.go) return 0 ;;
    *) return 1 ;;
    esac
}

added=0
removed=0
while IFS=$'\t' read -r a r path; do
    counted "$path" || continue
    added=$((added + a))
    removed=$((removed + r))
done < <(git diff --numstat --no-renames "$base" -- '*.go')
while IFS= read -r path; do
    counted "$path" || continue
    added=$((added + $(wc -l <"$path")))
done < <(git ls-files --others --exclude-standard -- '*.go')

echo "non-test Go lines vs $(git rev-parse --short "$base"): +$added -$removed (net $((added - removed)))"
