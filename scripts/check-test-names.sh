#!/bin/sh
# check-test-names.sh — fail when a test the Makefile names is gone.
#
# make test narrows its -race passes with -run patterns, and make fuzz
# names its targets with -fuzz. A renamed or deleted test silently drops
# out of such a pass. For every `$(GO) test` command in the Makefile,
# this script splits each -run and -fuzz pattern into its |-separated
# alternatives and runs `go test -list ALT` over the command's packages;
# an alternative that lists nothing in any of them fails the check, by
# name. The pattern ^$ (run no tests) is skipped.
#
# Usage: sh scripts/check-test-names.sh [Makefile]
set -eu

GO="${GO:-go}"
MAKEFILE="${1:-Makefile}"

cmds="$(mktemp)"
trap 'rm -f "$cmds"' EXIT INT TERM

# Join backslash-continued lines, keep the go test commands, and undo
# make's $$ escape.
awk '/\\$/ { sub(/\\$/, ""); line = line $0; next } { print line $0; line = "" }' "$MAKEFILE" |
	grep -F '$(GO) test' | sed 's/\$\$/$/g' >"$cmds"

set -f # patterns are not globs
checked=0
missing=0
while IFS= read -r cmd; do
	pkgs=""
	pats=""
	next=""
	for word in $cmd; do
		word=$(printf '%s' "$word" | tr -d "'\"")
		case "$next" in
		pat) pats="$pats $word" ;;
		esac
		next=""
		case "$word" in
		./*) pkgs="$pkgs $word" ;;
		-run | -fuzz) next=pat ;;
		esac
	done
	[ -n "$pkgs" ] || continue
	for pat in $pats; do
		[ "$pat" = '^$' ] && continue
		for alt in $(printf '%s' "$pat" | tr '|' ' '); do
			checked=$((checked + 1))
			# A package that fails to build fails the script here (set -e).
			# shellcheck disable=SC2086 # pkgs is a word list
			listed=$("$GO" test -list "$alt" $pkgs)
			if ! printf '%s\n' "$listed" | grep -qv '^\(ok\|?\)[[:space:]]'; then
				echo "check-test-names: no test in$pkgs matches $alt (from: $cmd)" >&2
				missing=$((missing + 1))
			fi
		done
	done
done <"$cmds"

if [ "$missing" -gt 0 ]; then
	echo "check-test-names: FAIL $missing of $checked named patterns match no test" >&2
	exit 1
fi
echo "check-test-names: all $checked named patterns match a test"
