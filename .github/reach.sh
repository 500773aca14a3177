#!/usr/bin/env bash
# The reach ledger: every production function (no bench/, no testdata/, no
# _test.go) with at least one statement must be run by tier-1 or by the
# command set below, or be listed in .github/unreached.txt as
# "file function reason". The step fails on an unlisted zero and on a listed
# function that is now reached, so the file ratchets both ways.
#
# Run from anywhere in the checkout: bash .github/reach.sh
# (about 3 minutes on 2 cores). It prints the merged total over production
# statements, the command set's own total over the same statements (what runs
# without the tests) and, under it, the functions no command reaches, then
# the current zero list; the output holds no timing, so two runs compare
# equal. The command-only list is a ledger to read, not a gate.
set -euo pipefail
cd "$(dirname "$0")/.."
ledger=.github/unreached.txt
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mod=$(go list -m)

# Tier-1, with every package's statements counted in every test binary.
if ! go test -count=1 -coverpkg=./... -coverprofile="$work/tests.out" ./... >"$work/tests.log" 2>&1; then
	cat "$work/tests.log" >&2
	echo "reach: tier-1 failed" >&2
	exit 1
fi

# The command set, each a -cover build writing to GOCOVERDIR: the CI
# campaigns (single-group and group mode), the explore smoke, the fixed
# matrix, a failure-rate sweep and a saved repro's replay, a listed campaign,
# the experiments at -fast and dbsim's smoke run with its trace.
mkdir -p "$work/bin" "$work/cov" "$work/corpus"
for c in faultsim experiments dbsim; do
	go build -cover -coverpkg=./... -o "$work/bin/$c" "./cmd/$c"
done
run() {
	if ! GOCOVERDIR="$work/cov" "$@" >"$work/cmd.log" 2>&1; then
		cat "$work/cmd.log" >&2
		echo "reach: $* failed" >&2
		exit 1
	fi
}
run "$work/bin/faultsim" -config configs/faultsim.json -campaign 300 -seed 2 -corpus "$work/corpus"
run "$work/bin/faultsim" -config configs/faultsim.json -campaign 100 -rejoin -seed 7 -corpus "$work/corpus"
run "$work/bin/faultsim" -config cmd/faultsim/testdata/smoke_groups.json -campaign 300 -seed 2 -corpus "$work/corpus"
run "$work/bin/faultsim" -config configs/smoke.json -short -explore -seed 1 -generations 4 -population 8 -parallel 4 -corpus "$work/corpus"
run "$work/bin/faultsim" -config configs/smoke.json -short
run "$work/bin/faultsim" -replay-file configs/lossy_rejoin.json -seeds 20 -corpus "$work/corpus"
run "$work/bin/faultsim" -replay-file cmd/faultsim/testdata/repro-conservative-s3-wedged-6836129103706797786.json -corpus "$work/corpus"
run "$work/bin/faultsim" -config configs/faultsim.json -campaign 5 -list
run "$work/bin/experiments" -fast all
run "$work/bin/dbsim" -config configs/smoke.json -v -trace "$work/trace.txt"

# One text profile: blocks at one position merge (set mode ORs them).
go tool covdata textfmt -i="$work/cov" -o "$work/cmds.out"
{
	cat "$work/tests.out"
	tail -n +2 "$work/cmds.out"
} >"$work/all.out"

# The two totals count the same statements, the production files' blocks:
# prod.out keeps every count, cmdsprod.out zeroes tier-1's.
awk -v mod="$mod/" -v all="$work/prod.out" -v cmds="$work/cmdsprod.out" '
	FNR == 1 { if (NR == 1) { print >all; print >cmds }; next }
	{ f = substr($1, length(mod) + 1); sub(/:.*/, "", f) }
	f ~ /^bench\// || f ~ /(^|\/)testdata\// { next }
	{ print >all; if (NR == FNR) $NF = 0; print >cmds }' "$work/tests.out" "$work/cmds.out"

# zeros prints "file function" for every production function of profile $1
# with a statement that nothing in the profile ran, sorted. A function counts
# when a block with statements starts between its line and the next
# function's in the same file; cover -func prints an empty body as 0.0 % too.
zeros() {
	go tool cover -func="$1" >"$work/func.txt"
	awk -v mod="$mod/" '
		function prod(f) { return f !~ /^bench\// && f !~ /(^|\/)testdata\// && f !~ /_test\.go$/ }
		FNR == NR {
			if (FNR == 1 || $2 == 0) next
			split($1, a, ":"); split(a[2], p, ".")
			f = substr(a[1], length(mod) + 1)
			blocks[f] = blocks[f] " " p[1]
			next
		}
		$1 == "total:" { next }
		{
			split($1, a, ":")
			f = substr(a[1], length(mod) + 1)
			if (!prod(f)) next
			n[f]++
			line[f, n[f]] = a[2]; name[f, n[f]] = $2; zero[f, n[f]] = ($3 == "0.0%")
		}
		END {
			for (f in n) {
				k = split(blocks[f], b, " ")
				for (i = 1; i <= n[f]; i++) {
					if (!zero[f, i]) continue
					lo = line[f, i] + 0; hi = (i < n[f]) ? line[f, i + 1] + 0 : 1e9
					for (j = 1; j <= k; j++)
						if (b[j] + 0 >= lo && b[j] + 0 < hi) { print f, name[f, i]; break }
				}
			}
		}' "$1" "$work/func.txt" | LC_ALL=C sort -u
}
zeros "$work/all.out" >"$work/zero.txt"
zeros "$work/cmdsprod.out" >"$work/cmdzero.txt"

go tool cover -func="$work/prod.out" | grep '^total:' | tr -s '\t' ' '
go tool cover -func="$work/cmdsprod.out" | grep '^total:' | sed 's/^total:/commands alone:/' | tr -s '\t' ' '
echo "reached by no command ($(wc -l <"$work/cmdzero.txt") functions):"
sed 's/^/  /' "$work/cmdzero.txt"

awk -v ledger="$ledger" '/^[[:space:]]*(#|$)/ { next }
	NF < 3 { print "reach: " ledger ": no reason on: " $0 >"/dev/stderr"; bad = 1 }
	{ print $1, $2 }
	END { exit bad }' "$ledger" | LC_ALL=C sort -u >"$work/listed.txt"

echo "unreached production functions:"
sed 's/^/  /' "$work/zero.txt"
unlisted=$(LC_ALL=C comm -23 "$work/zero.txt" "$work/listed.txt")
reached=$(LC_ALL=C comm -13 "$work/zero.txt" "$work/listed.txt")
status=0
if [ -n "$unlisted" ]; then
	echo "reach: reached by no test and no command, and not in $ledger (test it, delete it, or list it with a reason):" >&2
	echo "$unlisted" | sed 's/^/  /' >&2
	status=1
fi
if [ -n "$reached" ]; then
	echo "reach: listed in $ledger but now reached (remove the line):" >&2
	echo "$reached" | sed 's/^/  /' >&2
	status=1
fi
exit $status
