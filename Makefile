# Build / verify / bench entry points. Everything is stdlib-only Go; the
# toolchain is the only dependency.

GO ?= go
BENCH_OUT ?= BENCH_gemm.json
BENCH_N ?= 1024
BENCH_WORKERS ?= 4

.PHONY: build test vet race crash-test cluster-test factor-smoke fuzz bench-build verify bench bench-check bench-kernels bench-server bench-factor serve serve-bench clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The race subset covers the packages with real concurrency: the task
# runtime (work-stealing engine, fault tolerance), the trace shards and
# metrics instruments it updates from every worker, the performance models
# recorded from every worker while Save snapshots them, the dynamic
# descriptors, the parallel BLAS kernels, the registry/server/query stack
# behind pdlserved (copy-on-write snapshots, LRU query cache, shared query
# roots), and the cluster master/worker engine (event loop, ship goroutines,
# heartbeats) with its shared HTTP client.
race:
	$(GO) test -race ./internal/taskrt/... ./internal/trace/... ./internal/metrics/... ./internal/perfmodel/... ./internal/dynamic/... ./internal/blas/... ./internal/registry/... ./internal/server/... ./internal/query/... ./internal/cluster/... ./internal/client/...

# crash-test exercises the durability layer's recovery guarantees under the
# race detector: byte-granular journal truncation, corrupt-snapshot fallback,
# read-only degradation, bundle round-trips, and the HTTP-level restart and
# 503 contracts.
crash-test:
	$(GO) test -race -run 'CrashRecovery|TornAndCorrupt|AppendReplayTruncates|SnapshotRoundTrip|CorruptSnapshot|ReadOnly|FsyncdRecovery|Bundle|Import|Durable|JournalFailure|WALMetrics|DuplicateUpload' ./internal/registry/... ./internal/server/...

# cluster-test is the multi-process cluster smoke: it builds the real
# pdlserved + pdlworkerd binaries, registers two workers through the
# registry, runs a distributed tiled DGEMM master against them (verifying
# the merged cluster trace and the federated fleet metrics), and SIGKILLs
# one worker mid-flight to prove its tasks resubmit to the survivor with
# the numerical result intact. Set SMOKE_ARTIFACTS to a directory to keep
# the merged Chrome trace and the metrics snapshots (CI uploads them).
cluster-test:
	PDL_CLUSTER_SMOKE=1 PDL_SMOKE_ARTIFACTS=$(SMOKE_ARTIFACTS) $(GO) test -run TestClusterSmoke -v -timeout 300s ./internal/cluster/smoke

# fuzz runs a time-boxed exploration of the journal record decoder, the
# PDL unit parsers and the worker's execute-request decoder on top of the
# committed seed corpora (which plain `go test` already replays).
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzDecodeRecord -fuzztime=10s ./internal/registry
	$(GO) test -run='^$$' -fuzz=FuzzParseUnits -fuzztime=10s ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzWorkerExecute -fuzztime=10s ./internal/cluster

# factor-smoke is the Ext-K regression gate at smoke size: both tiled
# factorizations on both pools, every run numerically verified against the
# serial reference — it fails on a wrong factor or a broken DAG, fast.
factor-smoke:
	$(GO) run ./cmd/pdlbench -exp factor -n 256 -tile 64 -reps 1

# bench-build vets and tests the benchmark program. perfbench/ is its own
# module (replace repro => ../), so `go build ./...` above never compiles
# it; this catches internal API changes that would break the benchmark.
bench-build:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# verify is the tier-1 gate: build, full tests, vet, race subset,
# crash/recovery suite, multi-process cluster smoke, factorization smoke,
# benchmark program build.
verify: build test vet race crash-test cluster-test factor-smoke bench-build

# bench runs the Ext-I pipeline: the Go benchmark pass over the GEMM
# kernels, then the measured harness that writes $(BENCH_OUT) including the
# workers×n kernel scaling matrix (GOMAXPROCS pinned per point).
bench: bench-kernels
	$(GO) run ./cmd/pdlbench -exp gemm -gemmn $(BENCH_N) -workers $(BENCH_WORKERS) -matrix -out $(BENCH_OUT)

# bench-check re-measures the dispatch rows and compares them against the
# committed $(BENCH_OUT) baseline; exits nonzero when any scheduler's
# µs/task regresses beyond +15% (tune with `-tol`). CI runs it non-blocking.
bench-check:
	$(GO) run ./cmd/pdlbench -exp check -baseline $(BENCH_OUT)

bench-kernels:
	$(GO) test -run=^$$ -bench=Gemm -benchtime=1x .

# bench-server measures the pdlserved HTTP query path (cached vs uncached),
# so cache effectiveness shows up in the perf trajectory.
bench-server:
	$(GO) test -run=^$$ -bench=ServerQuery -benchtime=200x .

# bench-factor regenerates the committed Ext-K rows (tiled Cholesky + LU,
# ws vs dmda on homogeneous and 1-fast+3-slow pools).
bench-factor:
	$(GO) run ./cmd/pdlbench -exp factor -reps 2 -out BENCH_factor.json

# serve-bench is the Ext-L load harness: spin a loopback pdlserved, wait for
# /healthz, replay the query/predict/observe mix at swept concurrency, and
# write SERVE_bench.json with server-side p50/p99 per level.
serve-bench:
	@$(GO) build -o /tmp/pdlserved-bench ./cmd/pdlserved
	@/tmp/pdlserved-bench -addr 127.0.0.1:18080 & echo $$! > /tmp/pdlserved-bench.pid; \
	for i in $$(seq 1 50); do curl -fsS http://127.0.0.1:18080/healthz >/dev/null 2>&1 && break; sleep 0.2; done; \
	$(GO) run ./cmd/pdlbench -exp serve -server http://127.0.0.1:18080 -out SERVE_bench.json; \
	rc=$$?; kill $$(cat /tmp/pdlserved-bench.pid); rm -f /tmp/pdlserved-bench.pid; exit $$rc

# serve runs the registry service locally with the example platforms loaded.
serve:
	$(GO) run ./cmd/pdlserved -addr :8080 -preload internal/pdlxml/testdata

clean:
	rm -f $(BENCH_OUT)
