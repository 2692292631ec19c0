#!/usr/bin/env bash
# netlines.sh — prints the added, removed and net lines of non-test Go
# code between BASE and the working tree, untracked files included, then
# the same for the non-Go files that carry build, CI and benchmark logic
# (shell, Makefile, YAML, JSON). _test.go files and anything under a
# testdata/ directory are excluded from both. BASE defaults to the
# merge-base of HEAD with origin/main. Used by `make netlines`, e.g.
# `make netlines BASE=HEAD~1`. The header names BASE and the number of
# commits from it to HEAD; a defaulted BASE more than one commit behind
# HEAD (a stale origin/main) also gets a warning on stderr.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
base="${BASE:-$(git merge-base HEAD origin/main)}"
commits="$(git rev-list --count "$base..HEAD")"
echo "netlines: BASE $(git rev-parse --short "$base"), $commits commit(s) behind HEAD, plus the working tree"
if [ -z "${BASE:-}" ] && [ "$commits" -gt 1 ]; then
    echo "netlines: warning: the default BASE (merge-base with origin/main) counts $commits commits; use BASE=HEAD~1 for the last commit alone" >&2
fi

counted() {
    case "$1" in
    *_test.go | testdata/* | */testdata/*) return 1 ;;
    *) return 0 ;;
    esac
}

# count LABEL PATHSPEC... prints the line counts of the counted files
# matching PATHSPEC.
count() {
    local label="$1" added=0 removed=0 a r path
    shift
    while IFS=$'\t' read -r a r path; do
        counted "$path" || continue
        added=$((added + a))
        removed=$((removed + r))
    done < <(git diff --numstat --no-renames "$base" -- "$@")
    while IFS= read -r path; do
        counted "$path" || continue
        added=$((added + $(wc -l <"$path")))
    done < <(git ls-files --others --exclude-standard -- "$@")
    echo "$label lines vs $(git rev-parse --short "$base"): +$added -$removed (net $((added - removed)))"
}

count "non-test Go" '*.go'
count "non-Go (shell, Makefile, YAML, JSON)" '*.sh' '*Makefile' '*.yml' '*.yaml' '*.json'
