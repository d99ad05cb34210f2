#!/bin/sh
# benchdiff.sh — guard the publish ingest hot path against regressions.
#
# Default mode runs BenchmarkPublishIngest several times, takes the median
# ns/op, and compares it against the committed reference in
# scripts/bench_baseline.json. The check fails when the median exceeds
# baseline * allowed_regression.
#
# --telemetry mode measures the cost of span tracing instead: each round
# runs BenchmarkPublishIngest and BenchmarkPublishIngestTraced back to back
# in ONE go test process and records the traced/untraced ratio; the check
# fails when the median ratio exceeds max_traced_overhead (1.05 = 5%, the
# budget from the paper's overhead tables). Pairing the runs inside one
# process cancels the machine-state drift that dominates cross-invocation
# comparisons, so the check is host-independent. The Default registry ships
# with the tail-sampling trace store always on, so the traced side includes
# trace assembly + the tail-sampler keep/drop decision — the 5% gate runs
# with sampling enabled, not against a stripped-down tracer. The mode also
# gates the sampler hot path in isolation (BenchmarkTraceTailSampler vs
# tail_sampler_ns_per_op in the baseline).
#
# The baseline is machine-specific: absolute ns/op numbers move between
# hosts, so the allowed_regression factor is generous and the baseline
# should be refreshed (./scripts/benchdiff.sh --update) when benchmarking
# on a new reference machine or after an intentional perf change.
#
# Environment:
#   BENCH_COUNT  runs per median (default 5). Noisy shared CI runners
#                should raise this; quick local checks can lower it.
#
# Every verdict is also emitted as one machine-readable line the CI
# workflow greps out of the job log:
#   BENCHDIFF_SUMMARY mode=<ingest|stream|telemetry> ... result=<pass|fail>
set -eu

cd "$(dirname "$0")/.."
baseline=scripts/bench_baseline.json
bench=BenchmarkPublishIngest
traced=BenchmarkPublishIngestTraced
series=BenchmarkSeriesQuery
fanout=BenchmarkSubscribeFanout
qnocache=BenchmarkQueryEncodeNoCache
qdelta=BenchmarkQueryDelta
qrebuild=BenchmarkSnapshotRebuild
batch=BenchmarkPublishBatch
sampler=BenchmarkTraceTailSampler
scatter=BenchmarkScatterGatherQuery
count=${BENCH_COUNT:-5}

# Everything except --update compares against the committed baseline; fail
# up front with an actionable message when it is absent (fresh clone with the
# file deleted, or a CI cache restored wrong) instead of an awk parse error.
mode=ingest
[ "${1:-}" = "--telemetry" ] && mode=telemetry

if [ "${1:-}" != "--update" ] && [ ! -f "$baseline" ]; then
	echo "benchdiff: baseline file $baseline is missing." >&2
	echo "benchdiff: run './scripts/benchdiff.sh --update' on the reference machine and commit it." >&2
	echo "BENCHDIFF_SUMMARY mode=$mode result=fail reason=missing_baseline"
	exit 1
fi

# median_of <benchmark> — median ns/op over $count runs.
median_of() {
	go test ./internal/core/ -run '^$' -bench "$1\$" -count "$count" |
		awk -v b="$1" '$1 ~ "^"b {print $3}' | sort -n |
		awk '{v[NR]=$1} END {if (NR==0) exit 1; print v[int((NR+1)/2)]}'
}

# json_num <key> — numeric value of a top-level key in the baseline file.
json_num() {
	awk -F'[:,]' -v k="\"$1\"" '$0 ~ k {gsub(/[^0-9.]/, "", $2); print $2; exit}' "$baseline" 2>/dev/null || true
}

if [ "${1:-}" = "--telemetry" ]; then
	ratios=""
	i=0
	while [ "$i" -lt "$count" ]; do
		i=$((i + 1))
		out=$(go test ./internal/core/ -run '^$' \
			-bench "${bench}\$|${traced}\$" -count 5)
		# Min of 5 in-process runs per side: the minimum is the least
		# noise-contaminated estimate of a CPU-bound benchmark's true cost.
		um=$(printf '%s\n' "$out" | awk -v b="$bench" '$1 == b || $1 ~ "^"b"-" {print $3}' |
			sort -n | head -n 1)
		tm=$(printf '%s\n' "$out" | awk -v b="$traced" '$1 == b || $1 ~ "^"b"-" {print $3}' |
			sort -n | head -n 1)
		if [ -z "$um" ] || [ -z "$tm" ]; then
			echo "telemetry-overhead: round $i collected no samples" >&2
			exit 1
		fi
		r=$(awk -v u="$um" -v t="$tm" 'BEGIN {printf "%.4f", t/u}')
		echo "telemetry-overhead: round $i: untraced ${um} ns/op, traced ${tm} ns/op, ratio ${r}x"
		ratios="$ratios $r"
	done
	maxov=$(json_num max_traced_overhead)
	[ -n "$maxov" ] || maxov=1.05
	median_ratio=$(printf '%s\n' $ratios | sort -n |
		awk '{v[NR]=$1} END {print v[int((NR+1)/2)]}')
	echo "telemetry-overhead: median ratio ${median_ratio}x (limit ${maxov}x)"
	if awk -v r="$median_ratio" -v f="$maxov" 'BEGIN {exit (r > f) ? 0 : 1}'; then
		echo "telemetry-overhead: FAIL — tracing costs more than the allowed overhead" >&2
		echo "BENCHDIFF_SUMMARY mode=telemetry median_ratio=$median_ratio limit=$maxov result=fail"
		exit 1
	fi
	echo "telemetry-overhead: OK"
	echo "BENCHDIFF_SUMMARY mode=telemetry median_ratio=$median_ratio limit=$maxov result=pass"
	# Sampler hot-path gate: root-span start→end against a default-bounded
	# trace store, in isolation. Skipped when the baseline predates it.
	sbase=$(json_num tail_sampler_ns_per_op)
	sfactor=$(json_num sampler_allowed_regression)
	if [ -n "$sbase" ] && [ "$sbase" != "0" ] && [ -n "$sfactor" ]; then
		sm=$(median_of "$sampler")
		if [ -z "$sm" ]; then
			echo "telemetry-overhead: no samples collected for $sampler" >&2
			exit 1
		fi
		slimit=$(awk -v b="$sbase" -v f="$sfactor" 'BEGIN {printf "%.0f", b*f}')
		echo "telemetry-overhead: $sampler median ${sm} ns/op (baseline ${sbase}, limit ${slimit})"
		if awk -v m="$sm" -v l="$slimit" 'BEGIN {exit (m > l) ? 0 : 1}'; then
			echo "telemetry-overhead: FAIL — $sampler median ${sm} ns/op exceeds limit ${slimit} ns/op" >&2
			echo "BENCHDIFF_SUMMARY mode=sampler benchmark=$sampler median_ns_per_op=$sm baseline_ns_per_op=$sbase limit_ns_per_op=$slimit result=fail"
			exit 1
		fi
		echo "BENCHDIFF_SUMMARY mode=sampler benchmark=$sampler median_ns_per_op=$sm baseline_ns_per_op=$sbase limit_ns_per_op=$slimit result=pass"
	fi
	exit 0
fi

median=$(median_of "$bench")
if [ -z "$median" ]; then
	echo "benchdiff: no samples collected for $bench" >&2
	exit 1
fi

if [ "${1:-}" = "--update" ]; then
	pre=$(json_num pre_change_ns_per_op)
	tracedm=$(median_of "$traced")
	seriesm=$(median_of "$series")
	fanoutm=$(median_of "$fanout")
	qdeltam=$(median_of "$qdelta")
	qrebuildm=$(median_of "$qrebuild")
	batchm=$(median_of "$batch")
	samplerm=$(median_of "$sampler")
	scatterm=$(median_of "$scatter")
	cat >"$baseline" <<EOF
{
  "benchmark": "$bench",
  "ns_per_op": $median,
  "allowed_regression": 1.5,
  "pre_change_ns_per_op": ${pre:-0},
  "traced_benchmark": "$traced",
  "traced_ns_per_op": ${tracedm:-0},
  "max_traced_overhead": 1.05,
  "series_query_benchmark": "$series",
  "series_query_ns_per_op": ${seriesm:-0},
  "subscribe_fanout_benchmark": "$fanout",
  "subscribe_fanout_ns_per_op": ${fanoutm:-0},
  "stream_allowed_regression": 2.0,
  "query_delta_benchmark": "$qdelta",
  "query_delta_ns_per_op": ${qdeltam:-0},
  "snapshot_rebuild_benchmark": "$qrebuild",
  "snapshot_rebuild_ns_per_op": ${qrebuildm:-0},
  "query_allowed_regression": 2.0,
  "min_query_speedup": 5,
  "publish_batch_benchmark": "$batch",
  "publish_batch_ns_per_op": ${batchm:-0},
  "batch_allowed_regression": 2.0,
  "min_batch_publishes_per_sec": 500000,
  "tail_sampler_benchmark": "$sampler",
  "tail_sampler_ns_per_op": ${samplerm:-0},
  "sampler_allowed_regression": 2.0,
  "scatter_gather_benchmark": "$scatter",
  "scatter_gather_ns_per_op": ${scatterm:-0},
  "scatter_allowed_regression": 2.0,
  "recorded": "$(date -u +%Y-%m-%d)"
}
EOF
	echo "benchdiff: baseline updated to $median ns/op (traced ${tracedm:-0}, series ${seriesm:-0}, fanout ${fanoutm:-0}, query-delta ${qdeltam:-0}, rebuild ${qrebuildm:-0}, batch ${batchm:-0}, sampler ${samplerm:-0}, scatter ${scatterm:-0} ns/op)"
	exit 0
fi

base=$(json_num ns_per_op)
factor=$(json_num allowed_regression)
pre=$(json_num pre_change_ns_per_op)

limit=$(awk -v b="$base" -v f="$factor" 'BEGIN {printf "%.0f", b*f}')
echo "benchdiff: $bench median ${median} ns/op (baseline ${base}, limit ${limit})"
if [ -n "$pre" ] && [ "$pre" -gt 0 ]; then
	awk -v p="$pre" -v m="$median" 'BEGIN {printf "benchdiff: %.2fx over the pre-sharding ingest pipeline (%d ns/op)\n", p/m, p}'
fi

if [ "$median" -gt "$limit" ]; then
	echo "benchdiff: FAIL — median ${median} ns/op exceeds limit ${limit} ns/op" >&2
	echo "BENCHDIFF_SUMMARY mode=ingest benchmark=$bench median_ns_per_op=$median baseline_ns_per_op=$base limit_ns_per_op=$limit result=fail"
	exit 1
fi
echo "BENCHDIFF_SUMMARY mode=ingest benchmark=$bench median_ns_per_op=$median baseline_ns_per_op=$base limit_ns_per_op=$limit result=pass"

# Streaming guards: rollup query and subscriber fan-out, gated by their own
# (more generous) factor. Skipped when the baseline predates them.
sfactor=$(json_num stream_allowed_regression)
check_stream() {
	name=$1
	base=$(json_num "$2")
	if [ -z "$base" ] || [ "$base" = "0" ] || [ -z "$sfactor" ]; then
		return 0
	fi
	m=$(median_of "$name")
	if [ -z "$m" ]; then
		echo "benchdiff: no samples collected for $name" >&2
		exit 1
	fi
	slimit=$(awk -v b="$base" -v f="$sfactor" 'BEGIN {printf "%.0f", b*f}')
	echo "benchdiff: $name median ${m} ns/op (baseline ${base}, limit ${slimit})"
	if [ "$m" -gt "$slimit" ]; then
		echo "benchdiff: FAIL — $name median ${m} ns/op exceeds limit ${slimit} ns/op" >&2
		echo "BENCHDIFF_SUMMARY mode=stream benchmark=$name median_ns_per_op=$m baseline_ns_per_op=$base limit_ns_per_op=$slimit result=fail"
		exit 1
	fi
	echo "BENCHDIFF_SUMMARY mode=stream benchmark=$name median_ns_per_op=$m baseline_ns_per_op=$base limit_ns_per_op=$slimit result=pass"
}
check_stream "$series" series_query_ns_per_op
check_stream "$fanout" subscribe_fanout_ns_per_op

# Query-path guards (the stamped repeat poll). Three layers:
#   1. absolute ns/op medians for the delta/rebuild benchmarks against the
#      committed baseline (skipped when the baseline predates them),
#   2. a live speedup gate — BenchmarkQueryDelta (a poll whose stamp still
#      matches, answered "unchanged") vs BenchmarkQueryEncodeNoCache (a walk
#      and encode of the whole answer) run paired in ONE go test process, so
#      the >=5x requirement is a ratio and holds on any host,
#   3. an allocation lock — the delta path must report 0 allocs/op
#      (-benchmem), the property that makes repeated polls nearly free.
qfactor=$(json_num query_allowed_regression)
check_query() {
	name=$1
	base=$(json_num "$2")
	if [ -z "$base" ] || [ "$base" = "0" ] || [ -z "$qfactor" ]; then
		return 0
	fi
	m=$(median_of "$name")
	if [ -z "$m" ]; then
		echo "benchdiff: no samples collected for $name" >&2
		exit 1
	fi
	qlimit=$(awk -v b="$base" -v f="$qfactor" 'BEGIN {printf "%.0f", b*f}')
	echo "benchdiff: $name median ${m} ns/op (baseline ${base}, limit ${qlimit})"
	# awk, not [ -gt ]: sub-microsecond benchmarks report fractional ns/op.
	if awk -v m="$m" -v l="$qlimit" 'BEGIN {exit (m > l) ? 0 : 1}'; then
		echo "benchdiff: FAIL — $name median ${m} ns/op exceeds limit ${qlimit} ns/op" >&2
		echo "BENCHDIFF_SUMMARY mode=query benchmark=$name median_ns_per_op=$m baseline_ns_per_op=$base limit_ns_per_op=$qlimit result=fail"
		exit 1
	fi
	echo "BENCHDIFF_SUMMARY mode=query benchmark=$name median_ns_per_op=$m baseline_ns_per_op=$base limit_ns_per_op=$qlimit result=pass"
}
check_query "$qdelta" query_delta_ns_per_op
check_query "$qrebuild" snapshot_rebuild_ns_per_op

minspeed=$(json_num min_query_speedup)
[ -n "$minspeed" ] || minspeed=5
qout=$(go test ./internal/core/ -run '^$' \
	-bench "${qnocache}\$|${qdelta}\$" -benchmem -count 3)
# -benchmem rows: name iters ns/op "ns/op" B/op "B/op" allocs "allocs/op";
# min ns/op per side (least noise-contaminated), max allocs (must stay 0 on
# every run, not just the median one).
deltans=$(printf '%s\n' "$qout" | awk -v b="$qdelta" '$1 == b || $1 ~ "^"b"-" {print $3}' |
	sort -n | head -n 1)
nons=$(printf '%s\n' "$qout" | awk -v b="$qnocache" '$1 == b || $1 ~ "^"b"-" {print $3}' |
	sort -n | head -n 1)
deltaallocs=$(printf '%s\n' "$qout" | awk -v b="$qdelta" '$1 == b || $1 ~ "^"b"-" {print $7}' |
	sort -n | tail -n 1)
if [ -z "$deltans" ] || [ -z "$nons" ] || [ -z "$deltaallocs" ]; then
	echo "benchdiff: query speedup run collected no samples" >&2
	exit 1
fi
speedup=$(awk -v h="$deltans" -v n="$nons" 'BEGIN {printf "%.1f", n/h}')
echo "benchdiff: query repeat-poll speedup ${speedup}x (unchanged ${deltans} ns/op vs full encode ${nons} ns/op, need >=${minspeed}x)"
echo "benchdiff: query allocs/op: delta ${deltaallocs} (need 0)"
if awk -v s="$speedup" -v m="$minspeed" 'BEGIN {exit (s < m) ? 0 : 1}'; then
	echo "benchdiff: FAIL — the repeat poll is only ${speedup}x over the full encode" >&2
	echo "BENCHDIFF_SUMMARY mode=query-speedup speedup=$speedup min=$minspeed delta_allocs=$deltaallocs result=fail"
	exit 1
fi
if [ "$deltaallocs" != "0" ]; then
	echo "benchdiff: FAIL — the repeat poll allocates (${deltaallocs} allocs/op)" >&2
	echo "BENCHDIFF_SUMMARY mode=query-speedup speedup=$speedup min=$minspeed delta_allocs=$deltaallocs result=fail"
	exit 1
fi
echo "BENCHDIFF_SUMMARY mode=query-speedup speedup=$speedup min=$minspeed delta_allocs=$deltaallocs result=pass"

# Coalesced-publish throughput gate: BenchmarkPublishBatch times one logical
# publish through the wire-batched pipeline end to end, so 1e9/ns_per_op is
# the sustained publishes/sec one connection carries. Two checks: a relative
# regression limit against the committed baseline, and an absolute floor
# (min_batch_publishes_per_sec — the load-harness SLO derated for CI noise).
# Skipped when the baseline predates the batch pipeline.
bbase=$(json_num publish_batch_ns_per_op)
bfactor=$(json_num batch_allowed_regression)
bfloor=$(json_num min_batch_publishes_per_sec)
if [ -n "$bbase" ] && [ "$bbase" != "0" ] && [ -n "$bfactor" ]; then
	bm=$(median_of "$batch")
	if [ -z "$bm" ]; then
		echo "benchdiff: no samples collected for $batch" >&2
		exit 1
	fi
	[ -n "$bfloor" ] || bfloor=500000
	blimit=$(awk -v b="$bbase" -v f="$bfactor" 'BEGIN {printf "%.0f", b*f}')
	rate=$(awk -v m="$bm" 'BEGIN {printf "%.0f", 1e9/m}')
	echo "benchdiff: $batch median ${bm} ns/op = ${rate} publishes/sec (limit ${blimit} ns/op, floor ${bfloor}/sec)"
	if awk -v m="$bm" -v l="$blimit" 'BEGIN {exit (m > l) ? 0 : 1}'; then
		echo "benchdiff: FAIL — $batch median ${bm} ns/op exceeds limit ${blimit} ns/op" >&2
		echo "BENCHDIFF_SUMMARY mode=batch benchmark=$batch median_ns_per_op=$bm publishes_per_sec=$rate limit_ns_per_op=$blimit floor_per_sec=$bfloor result=fail"
		exit 1
	fi
	if awk -v r="$rate" -v f="$bfloor" 'BEGIN {exit (r < f) ? 0 : 1}'; then
		echo "benchdiff: FAIL — batched publish rate ${rate}/sec is below the ${bfloor}/sec floor" >&2
		echo "BENCHDIFF_SUMMARY mode=batch benchmark=$batch median_ns_per_op=$bm publishes_per_sec=$rate limit_ns_per_op=$blimit floor_per_sec=$bfloor result=fail"
		exit 1
	fi
	echo "BENCHDIFF_SUMMARY mode=batch benchmark=$batch median_ns_per_op=$bm publishes_per_sec=$rate limit_ns_per_op=$blimit floor_per_sec=$bfloor result=pass"
fi

# Scatter-gather query gate: BenchmarkScatterGatherQuery times one fleet-wide
# unstamped soma.query of the quiet 20 000-leaf LOAD tree against a
# 3-instance in-proc cluster — the gather at the member asked (every member
# answers "unchanged" to the stamp its memo holds), the byte-level union of
# the shards the memo keeps raw, and the client's decode of the whole answer. The factor is generous: three services
# and a client share the box's cores, which makes it the noisiest benchmark
# in the suite. Skipped when the baseline predates the cluster layer.
scbase=$(json_num scatter_gather_ns_per_op)
scfactor=$(json_num scatter_allowed_regression)
if [ -n "$scbase" ] && [ "$scbase" != "0" ] && [ -n "$scfactor" ]; then
	scm=$(median_of "$scatter")
	if [ -z "$scm" ]; then
		echo "benchdiff: no samples collected for $scatter" >&2
		exit 1
	fi
	sclimit=$(awk -v b="$scbase" -v f="$scfactor" 'BEGIN {printf "%.0f", b*f}')
	echo "benchdiff: $scatter median ${scm} ns/op (baseline ${scbase}, limit ${sclimit})"
	if awk -v m="$scm" -v l="$sclimit" 'BEGIN {exit (m > l) ? 0 : 1}'; then
		echo "benchdiff: FAIL — $scatter median ${scm} ns/op exceeds limit ${sclimit} ns/op" >&2
		echo "BENCHDIFF_SUMMARY mode=scatter benchmark=$scatter median_ns_per_op=$scm baseline_ns_per_op=$scbase limit_ns_per_op=$sclimit result=fail"
		exit 1
	fi
	echo "BENCHDIFF_SUMMARY mode=scatter benchmark=$scatter median_ns_per_op=$scm baseline_ns_per_op=$scbase limit_ns_per_op=$sclimit result=pass"
fi

echo "benchdiff: OK"
