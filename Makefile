GO ?= go

.PHONY: build test race bench bench-etl bench-json bench-trend bench-fed bench-mttr bench-live store-bench fmt vet lint lint-fix-scan check recovery fuzz-smoke fed-smoke chaos-smoke live-smoke bench-selftest

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Paper tables & figures (EXPERIMENTS.md); add PEOPLESNET_BENCH_SCALE=paper
# for the full 44k-hotspot world.
bench:
	$(GO) test -run xxx -bench . -benchmem .

# ETL ingest/query benchmarks only (EXPERIMENTS.md "ETL store" section).
bench-etl:
	$(GO) test -run xxx -bench 'BenchmarkETL' -benchtime 200x .

# Machine-readable benchmark record: run the full suite and write
# BENCH_<date>.json (name, ns/op, allocs, world scale) — the
# provenance file behind every number quoted in EXPERIMENTS.md.
bench-json:
	$(GO) build -o bin/benchjson ./cmd/benchjson
	$(GO) test -run xxx -bench . -benchmem . | ./bin/benchjson -scale $${PEOPLESNET_BENCH_SCALE:-small}

# Trend gate: diff the two newest BENCH_*.json records and fail loudly
# if any benchmark's ns/op regressed by more than 20%.
bench-trend:
	$(GO) build -o bin/benchjson ./cmd/benchjson
	./bin/benchjson -trend

# Live materialized analytics: batch-refresh baseline vs per-block
# incremental cost and snapshot cost (EXPERIMENTS.md "Streaming
# Study"). Writes BENCH_<date>.json like bench-json, so the ns/block
# and allocs/block metrics fall under the bench-trend gate.
bench-live:
	$(GO) build -o bin/benchjson ./cmd/benchjson
	$(GO) test -run xxx -bench 'BenchmarkMeasure$$|BenchmarkLiveStudy' -benchmem . | ./bin/benchjson -scale $${PEOPLESNET_BENCH_SCALE:-small}

# Storage engine v2 numbers (EXPERIMENTS.md "Storage engine v2"):
# postings compression ratio, cold-start time-to-first-query vs full
# preload, and checkpointed vs full ledger replay.
store-bench:
	$(GO) test -run xxx -bench 'BenchmarkStore' -benchtime 10x .

# Federated query tier under load: P50/P99 per query class, routing
# precision, 1/2/4/8-shard scaling, every result verified against the
# raw-chain oracle (EXPERIMENTS.md "Federated fan-out" section).
bench-fed:
	$(GO) run ./cmd/fedload -scale $${PEOPLESNET_BENCH_SCALE:-small}

# Fixture modules under internal/analysis/testdata hold deliberately
# bad code for the linter's own tests; fmt skips them (vet and build
# already do, since the toolchain ignores testdata trees).
fmt:
	@files=$$(gofmt -l . | grep -v '/testdata/' || true); if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; fi

vet:
	$(GO) vet ./...

# Repo-invariant static analysis (internal/analysis): fsdiscipline,
# determinism, txnexhaustive, closecheck, mutexguard, tickerstop,
# goroutinelife, ctxflow, lintallow.
lint:
	$(GO) build -o bin/peoplesnetlint ./cmd/peoplesnetlint
	./bin/peoplesnetlint ./...

# Audit every //lint:allow suppression in the tree, with its reason.
lint-fix-scan:
	$(GO) build -o bin/peoplesnetlint ./cmd/peoplesnetlint
	./bin/peoplesnetlint -suppressions ./...

# Crash-recovery matrix: every mutating I/O op of the ingest workload
# becomes a crash site (plus torn writes and bit flips); recovery must
# be lossless or an explicitly quarantined gap that Repair closes.
recovery:
	$(GO) test -race -run 'Durable|Reopen|CrashRecovery|BitFlip|Sidecar|Follower|AppendNonContiguous' ./internal/etl/

# Coverage-guided fuzzing over the codecs: the chain block decoder
# must decode-or-error on arbitrary bytes, the wire primitives must
# round-trip any write script exactly, the wire reader must never
# panic on garbage, and the v2 store codecs (compressed postings,
# ledger checkpoint) must round-trip clean input and reject hostile
# input without panicking. (`go test -fuzz` takes one target per run.)
fuzz-smoke:
	$(GO) test -fuzz FuzzDecodeBlock -fuzztime 10s -run xxx ./internal/chain/
	$(GO) test -fuzz FuzzWireRoundTrip -fuzztime 5s -run xxx ./internal/wire/
	$(GO) test -fuzz FuzzReaderNoPanic -fuzztime 5s -run xxx ./internal/wire/
	$(GO) test -fuzz FuzzPostingRoundTrip -fuzztime 10s -run xxx ./internal/etl/
	$(GO) test -fuzz FuzzDecodeCheckpoint -fuzztime 5s -run xxx ./internal/etl/

# Federation smoke: 4 height-sliced and 4 region-sliced in-process
# shards answer the full query matrix under the race detector, every
# result compared bit-for-bit against the single-store baseline. The
# kept-ID tests ride along: shards read the upstream blocks, and the
# transaction IDs kept on them, while the producer appends.
fed-smoke:
	$(GO) test -race -run 'TestFederationSmoke|TestMergedTxnHashes|TestTxnIDsWhileAppending|TestSeqUnrecoverableDegrades' ./internal/fed/
	$(GO) test -race -run 'TestKeptTxnIDs|TestAppendBlockHashedCopiesIDs' ./internal/chain/

# Chaos smoke: the seeded fed-layer fault matrix under the race
# detector — kill mid-tail, persist-path crash, torn WAL write, sealed
# segment bit flip, stalled shard, producer disconnect — each against
# supervised durable clusters; recovery must reconverge and answer the
# full query corpus bit-identically to the raw-chain oracle. -short
# skips the all-layouts kill sweep (the long tail; `make race` runs it).
chaos-smoke:
	$(GO) test -race -short -run 'TestFedChaos|TestDurableFollowerResume|TestSupervisor' ./internal/fed/

# Follower MTTR: kill a durable supervised shard and measure
# re-convergence, cold re-ingest vs checkpoint resume
# (EXPERIMENTS.md "Follower MTTR" section).
bench-mttr:
	$(GO) run ./cmd/fedload -scale $${PEOPLESNET_BENCH_SCALE:-small} -mttr -trials 5

# Live-study smoke: the prefix-equivalence suite under the race
# detector — the live fold must stay bit-identical to the batch
# measurement at every height, through store tails and follower
# retries.
live-smoke:
	$(GO) test -race -run 'TestLiveStudy' ./internal/live/

# perfbench's own tests: its reference checks and output digests on a
# small world. perfbench is a module of its own (perfbench/go.mod), so
# ./... at the root never reaches it.
bench-selftest:
	cd perfbench && GOWORK=off $(GO) test ./...

check: fmt vet lint build race recovery fuzz-smoke fed-smoke chaos-smoke live-smoke bench-selftest
