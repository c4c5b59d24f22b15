#!/usr/bin/env bash
# Statement coverage of what runs at all: the union of the test suite and of
# demi-bench's tables and soaks (`-json all`, `chaos`, `tenantchaos`),
# counted outside cmd/, examples/ and the root package. A statement neither
# reaches is code nothing runs: test it or delete it.
#
#   bash scripts/coverage.sh [workdir]
#
# Prints the union figure and writes workdir/union.txt (`go tool covdata
# textfmt` profile) and workdir/func.txt (per function). The workdir is a
# fresh temporary directory by default; demi-bench runs inside it, so its
# -json output lands there and not on the committed BENCH_results.json.
set -euo pipefail
cd "$(dirname "$0")/.."
work=$(realpath "${1:-$(mktemp -d)}")
rm -rf "$work/test" "$work/bench"
mkdir -p "$work/test" "$work/bench"

go test -cover -coverpkg=./... ./... -args -test.gocoverdir="$work/test" >"$work/test.log"
go build -cover -coverpkg=./... -o "$work/demi-bench" ./cmd/demi-bench
for exp in "-json all" chaos tenantchaos; do
	(cd "$work" && GOCOVERDIR="$work/bench" ./demi-bench $exp >/dev/null 2>&1)
done
go tool covdata textfmt -i="$work/test,$work/bench" -o "$work/union.txt"
go tool cover -func="$work/union.txt" >"$work/func.txt"

# A block is reached if any run reached it; each block counts once.
awk -F'[: ]' 'NR > 1 && $1 ~ /^demikernel\/internal\// {
	key = $1 ":" $2
	stmts[key] = $3
	if ($4 > 0) hit[key] = 1
}
END {
	for (k in stmts) { total += stmts[k]; if (!(k in hit)) miss += stmts[k] }
	printf "union coverage outside cmd/, examples/ and the root package: %.1f %% (%d of %d statements unreached)\n",
		100 * (total - miss) / total, miss, total
}' "$work/union.txt"
