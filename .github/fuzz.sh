#!/usr/bin/env bash
# Fuzzes every Fuzz target in the module for FUZZTIME (default 30s), one
# `go test -fuzz` run per target in the target's own package. Targets are
# found with `go test -list`, so a new one is fuzzed without editing CI.
# Exits non-zero if any target fails, or if none is found.
#
#   bash .github/fuzz.sh               # as CI runs it
#   FUZZTIME=2s bash .github/fuzz.sh   # a quick local pass
set -euo pipefail
fuzztime=${FUZZTIME:-30s}

# `go test -list` prints each package's matching names, then "ok <pkg> <time>".
targets=$(go test -list '^Fuzz' ./... | awk '
	/^Fuzz/ { names = names " " $1 }
	/^ok /  { if (names != "") print $2 names; names = "" }')

found=0
failed=()
while read -r pkg names; do
	for name in $names; do
		found=$((found + 1))
		echo "== $pkg $name ($fuzztime)"
		go test -run '^$' -fuzz "^$name\$" -fuzztime "$fuzztime" "$pkg" || failed+=("$pkg $name")
	done
done <<<"$targets"

if [ "$found" -eq 0 ]; then
	echo "no fuzz targets found" >&2
	exit 1
fi
echo "fuzzed $found targets, ${#failed[@]} failed"
if [ "${#failed[@]}" -gt 0 ]; then
	printf 'FAIL %s\n' "${failed[@]}" >&2
	exit 1
fi
