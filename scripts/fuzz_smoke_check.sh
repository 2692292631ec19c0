#!/usr/bin/env bash
# fuzz_smoke_check.sh — fails when a native fuzz target in the tree is
# missing from `make fuzz-smoke`, whose list of targets is kept by hand.
# Every `func FuzzXxx` in a tracked or untracked (not ignored) _test.go
# file must have a fuzz-smoke line `go test ./<its package dir> ...
# -fuzz='FuzzXxx$'`. Used by `make fuzz-smoke-check`, which `make ci` runs.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
recipe="$(make --no-print-directory -n fuzz-smoke)"
missing=0
targets=0
while IFS= read -r file; do
    dir="$(dirname "$file")"
    [ "$dir" = . ] || dir="./$dir"
    for name in $(sed -nE 's/^func (Fuzz[A-Za-z0-9_]*)\(.*/\1/p' "$file"); do
        targets=$((targets + 1))
        if ! grep -qF -- "go test $dir -run=NONE -fuzz='$name\$'" <<<"$recipe"; then
            echo "fuzz-smoke-check: $name ($dir) is not in make fuzz-smoke" >&2
            missing=1
        fi
    done
done < <(git ls-files --cached --others --exclude-standard -- '*_test.go')
if [ "$missing" -ne 0 ]; then
    exit 1
fi
echo "fuzz-smoke-check: all $targets fuzz targets are in make fuzz-smoke"
