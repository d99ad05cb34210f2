# Build/verify entry points. `make verify` is the tier-1 gate (see
# ROADMAP.md) and also vets and tests the benchmark module under bench/;
# `make bench` + `make benchdiff` guard the ingest hot path against
# regressions (scripts/bench_baseline.json holds the reference), `make perf`
# runs the repository's benchmark (BENCHMARK.json: shipped-config fleets, four
# workloads, end-to-end metrics), and `make telemetry-overhead` checks that
# span tracing stays within its 5% budget on the same hot path. `make chaos` soaks the integration workload
# under seeded fault injection (internal/faults) and asserts zero loss and
# zero deadlock; `make lint` is the gofmt/vet formatting gate CI runs.

GO ?= go
GOFMT ?= gofmt
BENCH_COUNT ?= 5

.PHONY: build test vet race lint bench-module bench benchdiff perf heap telemetry-overhead verify verify-stream chaos load load-smoke cluster-smoke gateway-smoke fuzz-smoke scenario scenarios

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# lint fails when any tracked Go file is not gofmt-clean, then vets. The
# chaos build tag is vetted explicitly so tag-gated files stay checked.
lint:
	@unformatted=$$($(GOFMT) -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: the following files need formatting:" >&2; \
		echo "$$unformatted" >&2; \
		exit 1; \
	fi
	$(GO) vet ./...
	$(GO) vet -tags chaos .

# bench-module vets and tests bench/ (a module of its own, so `./...` above
# never reaches it): a change under internal/ that breaks the benchmark's
# build or its lossy-proxy oracle test fails here, not at benchmark time.
bench-module:
	$(GO) vet -C bench ./... && $(GO) test -C bench ./...

verify: build vet lint test race bench-module

# verify-stream hammers the race-sensitive streaming paths (subscriptions,
# the soma.updates.* rows' long-poll serving and leases, the update log and
# its byte budget, pilot's PubSub and Queue, rollups, alerts), the cluster
# paths (placement, handoff, scattered reads, client routing, the RPC-table
# conformance and solo/fleet parity tests), the client publish pipeline
# (coalescer, spill queue, redelivery), the in-process publish door (no
# retained tree, placed like a wire publish) and the delta query (its
# partial answers against the full one, pollers sharing a memo beside
# publishers) repeatedly under the race detector, plus the in-process fleet
# scenarios (kill/restart, fault timelines). The whole output is kept in
# verify-stream.log (CI uploads it when the job fails): a -race report is
# hundreds of lines and a failure here may not recur for dozens of runs.
verify-stream: SHELL := bash
verify-stream: .SHELLFLAGS := -o pipefail -c
verify-stream:
	$(GO) test ./internal/core/ ./internal/zmq/ ./internal/mercury/ ./internal/scenario/ \
		-race -count=3 \
		-run 'Subscribe|Watch|Stream|Series|Alert|Updates|UpdateLog|PrefixMask|Lease|PubSub|Queue|Blocking|Flush|Fanout|Scenario|Scatter|Spill|Batch|Publish|Cluster|RPCTable|RPCSolo|Retain|PlacesLike|QueryDelta' \
		2>&1 | tee verify-stream.log

bench:
	$(GO) test ./internal/core/ -run '^$$' \
		-bench 'BenchmarkPublishIngest$$|BenchmarkPublishIngestRPC$$|BenchmarkPublishBatch$$|BenchmarkSelectSnapshot$$|BenchmarkSeriesQuery$$|BenchmarkSubscribeFanout$$|BenchmarkQueryHot$$|BenchmarkQueryEncodeNoCache$$|BenchmarkQueryDelta$$|BenchmarkQueryDeltaPartial$$|BenchmarkSnapshotRebuild$$|BenchmarkScatterGatherQuery$$' \
		-benchmem -count $(BENCH_COUNT)

benchdiff:
	scripts/benchdiff.sh

perf:
	$(GO) run -C bench ./somaperf

# heap prints what a default-flag somad's memory is holding, by owner: a live
# heap profile taken over soma.profile while `somabench pub` drives it.
heap:
	scripts/heap_by_owner.sh

telemetry-overhead:
	scripts/benchdiff.sh --telemetry

# chaos runs the seeded fault-injection soak 3× under the race detector;
# the schedules are deterministic per seed, so a pass is reproducible.
chaos:
	$(GO) test -race -tags chaos -count=3 -timeout 10m -run 'TestChaos' .

# load is the full-scale wire-batching experiment: 100k logical publishers
# coalesced over 8 connections into a default-config service (rollups on),
# gated on sustaining a million acknowledged publishes/sec with exact loss
# accounting (see DESIGN.md §4g). load-smoke is the same harness at CI scale
# — 1k publishers for 2s, no rate floor, still asserting zero loss.
load:
	$(GO) build -o bin/somabench ./cmd/somabench
	bin/somabench load -publishers 100000 -conns 8 -duration 8s \
		-batch-leaves 4096 -batch-bytes 262144 -query-interval 1s \
		-min-rate 1000000 -json

load-smoke:
	$(GO) build -o bin/somabench ./cmd/somabench
	bin/somabench load -publishers 1000 -conns 4 -duration 2s -json

# cluster-smoke is the sharded-fleet CI gate: the 3-instance somasim scenario
# (consistent-hash placement, two sever storms, zero-loss + ground-truth
# verdicts) followed by somabench against a 2-instance cluster with shard
# routing. The rate floor is deliberately conservative — shared CI runners
# (and single-core boxes) cannot show the multi-core scaling the full-size
# `make load` demonstrates — so the gate is exact loss accounting plus a
# sanity floor, not a scaling claim.
cluster-smoke:
	$(GO) build -o bin/somad ./cmd/somad
	$(GO) build -o bin/somasim ./cmd/somasim
	$(GO) build -o bin/somabench ./cmd/somabench
	bin/somasim run scenarios/cluster-rebalance.yaml
	bin/somabench load -peers 2 -publishers 1000 -conns 4 -duration 2s \
		-min-rate 200000 -json

# gateway-smoke boots somad + somagate, drives the JSON API and dashboard
# with curl, publishes via `somabench pub`, and holds a live WebSocket
# through one somad restart — asserting zero HTTP-availability loss, drops
# accounted in-stream, 429 under burst, and no leaked goroutines.
gateway-smoke:
	scripts/gateway_smoke.sh

# scenario runs one declarative scenario (make scenario S=kill-restart)
# against real somad child processes; scenarios runs the whole library and
# fails if any verdict comes back red (the CI scenario matrix runs one
# scenario per job via the same entry points). SCENARIO_FLAGS passes extra
# somasim flags, e.g. SCENARIO_FLAGS=-inproc or SCENARIO_FLAGS='-seed 7'.
scenario:
	@test -n "$(S)" || { echo "usage: make scenario S=<name>  (see scenarios/)" >&2; exit 2; }
	$(GO) build -o bin/somad ./cmd/somad
	$(GO) build -o bin/somasim ./cmd/somasim
	bin/somasim run $(SCENARIO_FLAGS) scenarios/$(S).yaml

scenarios:
	scripts/scenarios.sh

# fuzz-smoke runs each fuzz target briefly against its corpus plus fresh
# inputs: the binary batch decoder with the wire readers ingest runs over its
# entries, the envelope slicer, the byte-level tree union scattered reads
# merge peer frames with, the wire-vs-tree ingest differential, both ends of
# soma.updates.recv (the client's frame reader and the handler's request
# parsing), the growable rollup ring against the fixed-size ring it replaced,
# the conduit JSON codec round-trip, a built conduit tree against its decoded
# twin under random operations, the control-plane codec (Unmarshal of any
# decoded tree into every control-plane type), the client's graft of a partial
# delta answer onto its memo, and the WebSocket frame decoder
# (hostile wire input). One `go test -fuzz` invocation per target — the fuzzer
# accepts only a single match.
FUZZ_TIME ?= 20s
fuzz-smoke:
	$(GO) test ./internal/conduit/ -run '^$$' -fuzz 'FuzzDecodeBatch$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/conduit/ -run '^$$' -fuzz 'FuzzSliceFields$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/conduit/ -run '^$$' -fuzz 'FuzzMergeNodes$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/core/ -run '^$$' -fuzz 'FuzzWireIngest$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/core/ -run '^$$' -fuzz 'FuzzUpdatesRecvFrame$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/core/ -run '^$$' -fuzz 'FuzzBucketRing$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/core/ -run '^$$' -fuzz 'FuzzQueryDeltaApply$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/conduit/ -run '^$$' -fuzz 'FuzzJSONRoundTrip$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/conduit/ -run '^$$' -fuzz 'FuzzNodeOps$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/conduit/ -run '^$$' -fuzz 'FuzzUnmarshal$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/gateway/ -run '^$$' -fuzz 'FuzzWSFrame$$' -fuzztime $(FUZZ_TIME)
