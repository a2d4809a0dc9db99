#!/usr/bin/env bash
# Lists the functions no program runs. Run from the repository root:
#
#   bash scripts/deadcode.sh        (or: make deadcode)
#
# It builds the programs with coverage counters over every package of
# the module (go build -cover -coverpkg=peoplesnet/...), runs them
# briefly with GOCOVERDIR set, and reads the counters back with
# go tool covdata func. The runs:
#   - perfbench's three workloads, one measured second each;
#   - the golden tests of cmd/chainalyze, cmd/explorer and cmd/walktest;
#   - heliumsim, chainalyze (in memory, then -store twice), coverage
#     and walktest on a small world, and the four examples.
# Every non-test function still at 0.0 % that scripts/deadcode.allow
# does not name is printed, as are allowlist entries that name no
# function of the module; either makes the exit status 1. perfbench's
# own functions are not checked. Only the Go toolchain and POSIX tools
# are used; scratch files go to a temporary directory that is removed
# on exit.
set -euo pipefail

root=$(pwd)
allow="$root/scripts/deadcode.allow"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cov="$tmp/cov"
mkdir -p "$cov" "$tmp/bin"
cover=(-cover -coverpkg=peoplesnet/...)
go=${GO:-go}

# quiet runs a command with its output kept aside, shown only if it fails.
quiet() {
	if ! "$@" >"$tmp/out" 2>&1; then
		cat "$tmp/out" >&2
		echo "deadcode: failed: $*" >&2
		exit 1
	fi
}

(cd perfbench && export GOWORK=off && quiet "$go" build "${cover[@]}" -o "$tmp/bin/perfbench" .)
quiet "$go" build "${cover[@]}" -o "$tmp/bin/" ./cmd/heliumsim ./cmd/chainalyze ./cmd/coverage ./cmd/walktest ./examples/...

export GOCOVERDIR="$cov"
for w in explore follow reproduce; do
	quiet "$tmp/bin/perfbench" --workload "$w" --seconds 1 --trace 0
done
quiet "$tmp/bin/heliumsim" -seed 1 -out "$tmp/chain.jsonl"
quiet "$tmp/bin/chainalyze" "$tmp/chain.jsonl"
quiet "$tmp/bin/chainalyze" -store "$tmp/store" "$tmp/chain.jsonl"
quiet "$tmp/bin/chainalyze" -store "$tmp/store" "$tmp/chain.jsonl"
quiet "$tmp/bin/coverage" -seed 1 -map
quiet "$tmp/bin/walktest" -scenario all -map -csv "$tmp/walk.csv"
for ex in quickstart watermeter assettracker incentiveaudit; do
	quiet "$tmp/bin/$ex"
done
unset GOCOVERDIR
quiet "$go" test -count=1 "${cover[@]}" ./cmd/chainalyze ./cmd/explorer ./cmd/walktest -args -test.gocoverdir="$cov"

"$go" tool covdata func -i="$cov" >"$tmp/func"

# covdata lines read "peoplesnet/<file>:<line>:<tab><func><tabs><pct>";
# the allowlist keys them as "<file> <func>", without the line.
awk -v allow="$allow" '
	BEGIN {
		while ((getline line < allow) > 0) {
			if (line ~ /^[ \t]*(#|$)/) continue
			split(line, f, /[ \t]+/)
			allowed[f[1] " " f[2]] = 1
		}
	}
	$1 ~ /^peoplesnet\// && $1 !~ /^peoplesnet\/perfbench\// {
		loc = substr($1, length("peoplesnet/") + 1)
		file = loc; sub(/:.*/, "", file)
		key = file " " $2
		seen[key] = 1
		if ($NF == "0.0%" && !(key in allowed)) {
			print "deadcode: no program runs " loc " " $2
			bad = 1
		}
	}
	END {
		for (k in allowed) if (!(k in seen)) {
			print "deadcode: allowlist entry names no function: " k
			bad = 1
		}
		exit bad
	}
' "$tmp/func"
