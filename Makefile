GO ?= go

.PHONY: build vet fmt test reach race chaos fuzz bench bench-check loc check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt gate: fails, listing them, when any Go file needs gofmt.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l . lists:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# Reachability guard (also part of `test`): every function in internal/
# must be linked into a binary under cmd/, examples/ or bench/cmd, or
# carry a reachAllowlist entry in reach_test.go. -v prints the
# allowlist with each entry's class and reason.
reach:
	$(GO) test -count=1 -run '^TestReachability$$' -v .

# Race-check the packages with the most lock-free/concurrent code: the
# metrics registry, the replication senders/receivers, the query-result
# cache, the aggregation engine (parallel rebuild vs. incremental fold),
# the federation core (hub apply vs. aggregate vs. query), the REST
# layer that drives them all concurrently, the warehouse (WAL follower
# and fsync timer goroutines, lock-free snapshot readers beside the
# writer) with its column vectors under ./internal/warehouse/store, and
# the fault-injection layer. The admission package (token buckets,
# bounded queue, concurrency limiter) is raced too — its whole job is
# concurrent arrival. The hub's fold/rebuild coordination tests (a loose
# load racing a tight member and chart readers, and hub-local writes
# racing a member's batches and rebuilds, among them), the hub's guard
# that a reader never sees a member's fact before its user resolves in
# the identity map, and the warehouse's guard that a View captures a
# table snapshot and the binlog head atomically, its guard that binlog
# readers waiting on the log see
# every commit whole and without an LSN gap while writers commit
# transactions of several blocks, and its guard that lock-free readers
# resolve every string cell while the writer grows the dictionaries, and the key
# index's model test (readers probing under View while the writer
# changes the index), then run ten times over, and the front-door storm
# (200 concurrent chart requests through a 4-slot admission queue) five
# times, since a locking bug shows up only in some interleavings.
race:
	$(GO) test -race ./internal/obs/... ./internal/replicate/... ./internal/qcache/... ./internal/aggregate/... ./internal/core/... ./internal/rest/... ./internal/warehouse/... ./internal/faults/... ./internal/admission/...
	$(GO) test -race -count=10 -run '^(TestIncrementalFoldMatchesRebuild|TestConcurrentEnsureAggregatedRebuildsOnce|TestUpdateAndDeleteBatchesLeaveHubClean|TestBatchWaitsForRunningRecompute|TestConcurrentMembersReadersAndRebuilds|TestHubLocalWritesRaceMemberBatchesAndRebuilds|TestLooseLoadRacesTightMemberAndReaders|TestIdentityKnownBeforeFactsAreVisible|TestViewCapturesCommitAtomically|TestWaitNeverSeesPartOfACommit|TestDictionaryGrowsUnderConcurrentReaders|FuzzKeyIndex)$$' ./internal/core ./internal/warehouse
	$(GO) test -race -count=5 -run '^TestAdmissionStorm$$' ./internal/rest

# Chaos end-to-end: a multi-satellite federation under seeded fault
# injection (dropped connections, killed senders, torn WAL tails) must
# converge bit-identical to a fault-free control run. Always raced.
# See docs/robustness.md for the failure model and failpoint catalog.
chaos:
	$(GO) test -race -run 'TestChaos(FederationConvergence|PushdownConvergence)' -count 1 -v .

# Native fuzzing of the decoders that read bytes from outside the
# process: the binary event codec (replication frames, WAL payloads),
# WAL recovery over whole files, snapshot restore, the hub's
# replication receiver, fed hostile frames after a valid hello, the
# shredder's Slurm, PBS and LSF accounting-log parsers, and the
# storage realm's JSON snapshot parser. The key index is
# fuzzed against a model map, since the keys it finds come from
# ingested data. The chart encoders are fuzzed too, because the bytes they write come from ingested data: the
# /api/chart JSON body must equal encoding/json's for any strings and
# finite values, and the SVG must stay legal XML for any text. One
# target per invocation is a `go test -fuzz` rule. The seed corpora run
# in plain `go test` (tier-1) too; a failure is written to the
# package's testdata/fuzz/ — commit it.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeEvents$$' -fuzztime 20s -fuzzminimizetime 5s ./internal/warehouse
	$(GO) test -run '^$$' -fuzz '^FuzzReplayLog$$' -fuzztime 20s -fuzzminimizetime 5s ./internal/warehouse
	$(GO) test -run '^$$' -fuzz '^FuzzRestoreSnapshot$$' -fuzztime 20s -fuzzminimizetime 5s ./internal/warehouse
	$(GO) test -run '^$$' -fuzz '^FuzzKeyIndex$$' -fuzztime 20s -fuzzminimizetime 5s ./internal/warehouse
	$(GO) test -run '^$$' -fuzz '^FuzzReceiverFrames$$' -fuzztime 20s -fuzzminimizetime 5s ./internal/replicate
	$(GO) test -run '^$$' -fuzz '^FuzzSlurmParse$$' -fuzztime 20s -fuzzminimizetime 5s ./internal/shredder
	$(GO) test -run '^$$' -fuzz '^FuzzPBSParse$$' -fuzztime 20s -fuzzminimizetime 5s ./internal/shredder
	$(GO) test -run '^$$' -fuzz '^FuzzLSFParse$$' -fuzztime 20s -fuzzminimizetime 5s ./internal/shredder
	$(GO) test -run '^$$' -fuzz '^FuzzParseJSON$$' -fuzztime 20s -fuzzminimizetime 5s ./internal/realm/storage
	$(GO) test -run '^$$' -fuzz '^FuzzChartJSON$$' -fuzztime 20s -fuzzminimizetime 5s ./internal/rest
	$(GO) test -run '^$$' -fuzz '^FuzzChartSVG$$' -fuzztime 20s -fuzzminimizetime 5s ./internal/chart

# The benchmark: one full pass of the pipeline harness under bench/
# (every workload of BENCHMARK.json, measured and traced). See
# bench/README.md for the workloads and metrics.
bench:
	bash bench/run.sh

# The pipeline benchmark harness (bench/, a Go module of its own that
# the targets above neither build nor vet) compiles against this
# module's public API; vet and self-test it so an API it needs cannot
# be broken unnoticed.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Non-test Go lines per package outside bench/: all lines, and lines
# that are neither blank nor comment-only.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | sort | xargs awk '\
		FNR == 1 { dir = FILENAME; sub(/\/[^\/]*$$/, "", dir) } \
		{ all[dir]++; tall++ } \
		!/^[ \t]*($$|\/\/)/ { code[dir]++; tcode++ } \
		END { for (d in all) printf "%-36s %6d %6d\n", d, all[d], code[d] | "sort"; close("sort"); \
		      printf "%-36s %6d %6d\n", "TOTAL (lines, code lines)", tall, tcode }'

# Tier-1 gate: everything CI runs.
check: build vet fmt test race bench-check
