# Mirrors .github/workflows/ci.yml: `make lint test` is what CI runs.

GO ?= go

.PHONY: build test test-race test-full test-e2ebench bench bench-json bench-check lint fmt doc-check riotvet smoke

build:
	$(GO) build ./...

# The short suite is what CI gates on (<5 minutes).
test:
	$(GO) test -short ./...

test-race:
	$(GO) test -race -short ./...

# Full suite, including the full linear-regression plan-space search.
test-full:
	$(GO) test ./...

# e2ebench/ is a nested module, so `go test ./...` from the root never
# reaches it. Its tests pin the benchmark's cold specs to the built-in
# programs' plan statistics.
test-e2ebench:
	cd e2ebench && $(GO) vet . && $(GO) test -short .

bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# Seed the perf trajectory: parallel-exec, engine-overhead (ns/event and
# allocs/op of a compiled plan over an all-hit pool) and buffer-pool
# benchmarks as JSON (op, ns/op, hit rate) into BENCH_pool.json, the
# eviction-policy comparison (LRU vs segmented hot-set hit rate under a
# flooding scan) into
# BENCH_cache.json, the sharded-vs-single-directory parallel-read benchmark
# into BENCH_shard.json, the replication benchmarks (k-way write
# amplification, healthy vs degraded-fallback read latency) into
# BENCH_replica.json, and the network block-service round-trip benchmarks
# (remote read/write vs local dir, pipelined vs serial under device
# latency) into BENCH_remote.json — the shard, replica and remote runs with
# allocs/op, so bench-check gates the block data plane's allocations —
# the telemetry overhead benchmark
# (instrumented vs no-op registry on the pipelined exec path — the two
# must stay within a few percent of each other) into BENCH_telemetry.json,
# the three-tier planner benchmark (full Apriori search vs budgeted
# greedy vs warm cache-served query) plus the polyhedral-kernel layer
# benchmarks (Simplify, EliminateVar, FindSchedule), all with allocs/op,
# into BENCH_planner.json, and the
# streamed-results delivery benchmark (a result 4x the pool's capacity
# streamed with flat pool residency — the benchmark itself fails if the
# pool's high-water mark exceeds capacity) into BENCH_stream.json.
# CI uploads all eight as artifacts and gates on them via bench-check.
# Each step runs separately so a failing benchmark fails the target.
bench-json:
	$(GO) test -run '^$$' -bench 'BenchmarkParallelExec' -benchtime 3x . > .bench-exec.txt
	$(GO) test -run '^$$' -bench 'BenchmarkExecOverhead' -benchmem ./internal/exec >> .bench-exec.txt
	$(GO) test -run '^$$' -bench 'BenchmarkPool' -benchmem ./internal/buffer > .bench-pool.txt
	cat .bench-exec.txt .bench-pool.txt | $(GO) run ./cmd/benchjson -out BENCH_pool.json
	$(GO) test -run '^$$' -bench 'BenchmarkCachePolicy' -benchmem ./internal/buffer > .bench-cache.txt
	$(GO) run ./cmd/benchjson -out BENCH_cache.json < .bench-cache.txt
	$(GO) test -run '^$$' -bench 'BenchmarkShardedRead' -benchtime 5x -benchmem ./internal/storage > .bench-shard.txt
	$(GO) run ./cmd/benchjson -out BENCH_shard.json < .bench-shard.txt
	$(GO) test -run '^$$' -bench 'BenchmarkReplicatedWrite|BenchmarkDegradedRead' -benchtime 20x -benchmem ./internal/storage > .bench-replica.txt
	$(GO) run ./cmd/benchjson -out BENCH_replica.json < .bench-replica.txt
	$(GO) test -run '^$$' -bench 'BenchmarkRemote' -benchtime 20x -benchmem ./internal/blockd > .bench-remote.txt
	$(GO) run ./cmd/benchjson -out BENCH_remote.json < .bench-remote.txt
	$(GO) test -run '^$$' -bench 'BenchmarkTelemetryOverhead' -benchtime 5x . > .bench-telemetry.txt
	$(GO) run ./cmd/benchjson -out BENCH_telemetry.json < .bench-telemetry.txt
	$(GO) test -run '^$$' -bench 'BenchmarkPlannerTiers' -benchtime 3x -benchmem . > .bench-planner.txt
	$(GO) test -run '^$$' -bench 'BenchmarkSimplify|BenchmarkEliminateVar' -benchmem ./internal/polyhedra >> .bench-planner.txt
	$(GO) test -run '^$$' -bench 'BenchmarkFindSchedule' -benchmem ./internal/sched >> .bench-planner.txt
	$(GO) run ./cmd/benchjson -out BENCH_planner.json < .bench-planner.txt
	$(GO) test -run '^$$' -bench 'BenchmarkStreamedResults' -benchtime 20x . > .bench-stream.txt
	$(GO) run ./cmd/benchjson -out BENCH_stream.json < .bench-stream.txt
	@rm -f .bench-exec.txt .bench-pool.txt .bench-cache.txt .bench-shard.txt .bench-replica.txt .bench-remote.txt .bench-telemetry.txt .bench-planner.txt .bench-stream.txt

# Bench-regression gate: stash the committed baselines, rerun the
# benchmarks, and fail on a >25% ns/op regression against any baseline,
# or on an allocs/op rise beyond benchjson's fixed 2% wherever both sides
# report allocs/op.
# CI runs exactly this; refresh the committed BENCH_*.json to move a
# baseline deliberately.
bench-check:
	@mkdir -p .bench-base
	cp BENCH_pool.json BENCH_cache.json BENCH_shard.json BENCH_replica.json BENCH_remote.json BENCH_telemetry.json BENCH_planner.json BENCH_stream.json .bench-base/
	$(MAKE) bench-json
	$(GO) run ./cmd/benchjson -compare .bench-base/BENCH_pool.json BENCH_pool.json -tolerance 0.25
	$(GO) run ./cmd/benchjson -compare .bench-base/BENCH_cache.json BENCH_cache.json -tolerance 0.25
	$(GO) run ./cmd/benchjson -compare .bench-base/BENCH_shard.json BENCH_shard.json -tolerance 0.25
	$(GO) run ./cmd/benchjson -compare .bench-base/BENCH_replica.json BENCH_replica.json -tolerance 0.25
	$(GO) run ./cmd/benchjson -compare .bench-base/BENCH_remote.json BENCH_remote.json -tolerance 0.25
	$(GO) run ./cmd/benchjson -compare .bench-base/BENCH_telemetry.json BENCH_telemetry.json -tolerance 0.25
	$(GO) run ./cmd/benchjson -compare .bench-base/BENCH_planner.json BENCH_planner.json -tolerance 0.25
	$(GO) run ./cmd/benchjson -compare .bench-base/BENCH_stream.json BENCH_stream.json -tolerance 0.25
	@rm -rf .bench-base

# Godoc completeness over the public surface: the facade, the planner
# (core/sched/cost), the storage and server layers, and the network
# plane. CI fails on any exported identifier without a doc comment, and
# on any relative markdown link in README/docs pointing at a missing
# file.
doc-check:
	$(GO) run ./cmd/doccheck . ./internal/core ./internal/sched ./internal/cost ./internal/storage ./internal/server ./internal/blockd ./internal/blockproto ./internal/telemetry
	$(GO) run ./cmd/doccheck -links README.md docs

# End-to-end fleet smoke test: 4 riotblockd + riotshared, query, kill a
# server, repair, restart against the persisted catalog.
smoke:
	./scripts/remote_smoke.sh

# riotvet is the project-invariant static-analysis suite (guarded-field
# locking, I/O under locks, context threading, error classification); see
# docs/static-analysis.md for the invariants and the annotation vocabulary.
# Also runnable through the vet driver: go vet -vettool=$(go env GOPATH)/bin/riotvet ./...
riotvet:
	$(GO) run ./cmd/riotvet ./...

# The one lint entry point: go vet, gofmt, the riotvet suite, and godoc
# completeness + docs link checking. CI runs exactly this.
lint: riotvet doc-check
	$(GO) vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needs to be run on:"; echo "$$out"; exit 1; \
	fi

fmt:
	gofmt -w .
