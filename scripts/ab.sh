#!/usr/bin/env bash
# Paired perfbench runs of this checkout against another revision:
#
#   scripts/ab.sh BASE WORKLOAD [PAIRS] [SEED]      (make ab BASE=… WORKLOAD=…)
#
# BASE is checked out as a git worktree under .bench_build/ab-base and
# removed again at exit; its build caches stay in .bench_build/ab-base-build
# for the next comparison. Both sides run through their own
# perfbench/run.sh, which builds offline with the local toolchain, for
# BENCHMARK.json's run_seconds each; the side that runs first flips every
# pair. The result line (the last line of each run's output) is kept as
# .bench_build/ab/<workload>-s<seed>-<pair>-<base|change>.json, the rest of
# the output beside it (.log). At the end
# the script prints, per end-to-end metric, each side's median and q1–q3,
# the ratio change/base of the medians, and the pairs the change won (ties
# count for neither side). It exits 1 when any run failed.
set -euo pipefail
base=${1:?usage: scripts/ab.sh BASE WORKLOAD [PAIRS] [SEED]}
workload=${2:?usage: scripts/ab.sh BASE WORKLOAD [PAIRS] [SEED]}
pairs=${3:-10}
seed=${4:-1}

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
rev=$(git rev-parse --verify "$base^{commit}")
seconds=$(awk -F'[:,]' '/"run_seconds"/ {gsub(/ /, "", $2); print $2}' BENCHMARK.json)
wt=.bench_build/ab-base
out=.bench_build/ab
mkdir -p "$out"
git worktree remove --force "$wt" 2>/dev/null || rm -rf "$wt"
git worktree prune
git worktree add --detach "$wt" "$rev" >/dev/null
trap 'git worktree remove --force "$wt"' EXIT
echo "ab: $workload, seed $seed, $pairs pairs of ${seconds} s: base $rev against the checkout"

failed=0
run() { # side pair
	local name="$out/$workload-s$seed-$2-$1" code=0
	if [ "$1" = base ]; then
		CARGO_TARGET_DIR="$root/.bench_build/ab-base-build" bash "$wt/perfbench/run.sh" \
			--workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 >"$name.log" 2>&1 || code=$?
	else
		bash perfbench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 >"$name.log" 2>&1 || code=$?
	fi
	grep '^{"correct"' "$name.log" | tail -n 1 >"$name.json" || true
	echo "pair $2 $1: exit $code"
	if [ "$code" -ne 0 ] || ! grep -q '"correct":true' "$name.json"; then
		failed=1
	fi
}
for ((p = 1; p <= pairs; p++)); do
	if ((p % 2)); then
		run base "$p"
		run change "$p"
	else
		run change "$p"
		run base "$p"
	fi
done

# One "pair side metric value" row per metric of every result line, then
# the summary, with each metric's better direction from BENCHMARK.json.
for ((p = 1; p <= pairs; p++)); do
	for side in base change; do
		{ grep -o '"[A-Za-z0-9_.]*":{"value":[-+0-9.eE]*' "$out/$workload-s$seed-$p-$side.json" || true; } |
			sed -e 's/^"\([^"]*\)":{"value":/\1 /' -e "s/^/$p $side /"
	done
done | awk -v dirs="$(awk -F'"' '/"name":/ {n = $4} /"better":/ {print n "=" $4}' BENCHMARK.json)" '
function quant(a, n, q,    h, i) { h = (n - 1) * q; i = int(h); return i + 1 < n ? a[i] + (h - i) * (a[i + 1] - a[i]) : a[i] }
function sorted(src, n, dst,    i, j, v) {
	for (i = 0; i < n; i++) {
		v = src[i]
		for (j = i; j > 0 && dst[j - 1] > v; j--) dst[j] = dst[j - 1]
		dst[j] = v
	}
}
BEGIN { k = split(dirs, d, "\n"); for (i = 1; i <= k; i++) { split(d[i], f, "="); better[f[1]] = f[2] } }
{
	if (!($3 in seen)) { seen[$3] = 1; names[nm++] = $3 }
	val[$3, $2, $1] = $4
	if ($2 == "base") vals[$3, "base", nb[$3]++] = $4; else vals[$3, "change", nc[$3]++] = $4
	if ($1 > np) np = $1
}
END {
	printf "%-20s %28s %28s %7s %6s\n", "metric", "base median [q1, q3]", "change median [q1, q3]", "ratio", "wins"
	for (m = 0; m < nm; m++) {
		x = names[m]
		for (i = 0; i < nb[x]; i++) tb[i] = vals[x, "base", i]
		for (i = 0; i < nc[x]; i++) tc[i] = vals[x, "change", i]
		sorted(tb, nb[x], sb); sorted(tc, nc[x], sc)
		mb = quant(sb, nb[x], 0.5); mc = quant(sc, nc[x], 0.5)
		wins = 0; n = 0
		for (p = 1; p <= np; p++) {
			if (!((x, "base", p) in val) || !((x, "change", p) in val)) continue
			n++
			b = val[x, "base", p]; c = val[x, "change", p]
			if ((better[x] == "lower" && c < b) || (better[x] == "higher" && c > b)) wins++
		}
		printf "%-20s %10.4g [%6.4g, %6.4g] %10.4g [%6.4g, %6.4g] %7.3f %3d/%-2d\n", x,
			mb, quant(sb, nb[x], 0.25), quant(sb, nb[x], 0.75),
			mc, quant(sc, nc[x], 0.25), quant(sc, nc[x], 0.75), mb != 0 ? mc / mb : 0, wins, n
	}
}'
exit "$failed"
