GO ?= go

.PHONY: build fmt vet fma test race chaos microbench fuzz benchmod ci

build:
	$(GO) build ./...

# fmt fails when any file needs gofmt, printing the offenders.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# fma cross-compiles the result-producing packages for the
# architectures whose Go compiler may fuse x*y + z into one
# multiply-add with a single rounding (amd64 never does), and fails on
# any fused instruction outside FMA_ALLOW: a fused site records other
# bits on those hosts than on amd64, and an explicit float64(x*y)
# forbids the fusion. The one allowed file is the retry policy's backoff
# jitter, a delay rather than a result. It needs only the local
# toolchain; the first run builds the standard library for each
# architecture into the build cache (≈30 s each).
FMA_ARCHS = arm64 ppc64le s390x riscv64
FMA_PKGS = ./internal/sim/... ./internal/energy ./internal/workloads ./internal/analysis \
	./internal/experiments ./internal/core/... ./internal/simcache
FMA_ALLOW = gem5art/internal/core/tasks/retry.go:
fma:
	@rc=0; for arch in $(FMA_ARCHS); do \
		asm=$$(GOARCH=$$arch $(GO) build -trimpath -gcflags=-S $(FMA_PKGS) 2>&1) || { \
			GOARCH=$$arch $(GO) build $(FMA_PKGS); echo "fma: $$arch build failed"; exit 1; }; \
		sites=$$(echo "$$asm" | grep -E '[[:space:]]FN?M(ADD|SUB)[DS]?[[:space:]]' | \
			sed -E 's/.*\(([^)]*)\).*/\1/' | sort -u); \
		echo "$$arch fused sites: $$(echo $$sites)"; \
		bad=$$(echo "$$sites" | grep -v '$(FMA_ALLOW)' | grep .); \
		if [ -n "$$bad" ]; then echo "fma: $$arch fuses outside the allowlist"; rc=1; fi; \
	done; exit $$rc

test:
	$(GO) test ./...

# race runs every test under the race detector. A simulation runs on
# one goroutine, so in the simulator the shared state is what systems
# built at once share: the memory pools of internal/sim/mem, which
# workloads.TestConcurrentRunsMatchSerial exercises from 4 goroutines.
# The service layers (broker, worker, fleet, gateway, store) are where
# most goroutines meet.
race:
	$(GO) test -race ./...

# chaos runs the fault-injection suites under the race detector: the
# seeded network-chaos proxy tests, the broker/worker session and
# durability tests, the shard replication/failover unit suite, and the
# end-to-end launches that kill the broker, partition each worker, flap
# every connection, rolling-kill all four shard primaries mid-launch,
# and inject every disk-fault class (EIO, ENOSPC, short write, fsync
# failure, torn rename, torn write) into the broker's durable queue.
# The invariant under test: every launch completes with zero lost and
# zero duplicated job results, and a store that cannot persist degrades
# to read-only instead of acknowledging doomed commits.
#
# The e2e launches run as a seed matrix (CHAOS_SEEDS) so a flake on one
# seed is a deterministic repro, not a shrug. Each seed's transcript is
# written to CHAOS_ARTIFACTS; on failure the tests also drop a repro
# report (seed, fired faults — including the DiskChaos fired-fault log —
# fleet state snapshot) plus a scrub/quarantine report and the shard
# brokers' journals there. CHAOS_JOBS sizes the sharded launch.
CHAOS_SEEDS ?= 4242 1337 90210
CHAOS_JOBS ?= 10000
CHAOS_ARTIFACTS ?= $(CURDIR)/chaos-artifacts
chaos:
	$(GO) test -race -count=1 ./internal/faultinject/ ./internal/core/tasks/ ./internal/core/tasks/shard/
	@mkdir -p $(CHAOS_ARTIFACTS); rc=0; \
	for seed in $(CHAOS_SEEDS); do \
		log=$(CHAOS_ARTIFACTS)/chaos-seed$$seed.log; \
		echo "=== chaos e2e: seed $$seed ($(CHAOS_JOBS) jobs) ==="; \
		if CHAOS_SEED=$$seed CHAOS_JOBS=$(CHAOS_JOBS) CHAOS_ARTIFACTS=$(CHAOS_ARTIFACTS) \
			$(GO) test -race -count=1 -run 'TestChaos|TestEndToEnd' ./internal/core/launch/ >$$log 2>&1; then \
			echo "seed $$seed: PASS"; \
		else \
			echo "seed $$seed: FAIL"; cat $$log; rc=1; \
		fi; \
	done; \
	exit $$rc

# microbench compiles and runs the go-test microbenchmarks of the
# simulation kernel (a self-rescheduling event chain), of the four CPU
# models (one boot-like program per op, with simulated MIPS, B/op and
# allocs/op; each op releases its system, so
# B/op is the recycled figure, ≈5 KB against ≈239 KB when every op
# allocated its caches and pages), of the store (journal append, 480-document batch commit
# with its fsync count, a 2 KiB blob archive with its fsyncs/put — 1 —
# and creates/put — 0, the blob pack being open — count by plain index
# vs by scan at 10k documents, the filter matcher), of simcache run-key
# derivation, and
# of a 64-run warm relaunch on a journaled store (ns/run, the runs
# records each replayed run commits, and the runs-journal fsyncs per
# run: 1/64, one commit per launch batch), of no-op jobs through a
# broker with a durable queue and a TCP worker (us/job, and the queue's
# fsyncs/job: 2, the submit and the result) for a fixed 200 iterations, and
# the GPU model's BenchmarkRunTable4 (all 58 Table IV cells per
# iteration, with Mops/s) for 5, as one iteration takes ~0.2 s: a
# smoke run that keeps them building and shows allocs/op, not a timing.
microbench:
	$(GO) test -run '^$$' -bench . -skip RunTable4 -benchtime 200x ./internal/sim/... ./internal/database/... \
		./internal/simcache/... ./internal/core/launch/... ./internal/core/tasks/
	$(GO) test -run '^$$' -bench RunTable4 -benchtime 5x ./internal/sim/gpu/

# fuzz runs each Fuzz* target for a fixed 30 s beyond its committed
# seeds (testdata/fuzz/, which go test alone replays). A crasher that
# turns up is committed there as a seed with its fix. Not part of ci:
# it is a search, not a gate.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzResultsFromDoc$$' -fuzztime 30s ./internal/core/run/
	$(GO) test -run '^$$' -fuzz '^FuzzBlobPack$$' -fuzztime 30s ./internal/database/
	$(GO) test -run '^$$' -fuzz '^FuzzWaveRNG$$' -fuzztime 30s ./internal/sim/gpu/
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpoint$$' -fuzztime 30s ./internal/sim/cpu/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRun$$' -fuzztime 30s ./internal/sim/cpu/
	$(GO) test -run '^$$' -fuzz '^FuzzJobTable$$' -fuzztime 30s ./internal/core/tasks/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 30s ./internal/energy/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 30s ./internal/diskimage/

# benchmod vets and tests the benchmark module, which builds against
# this module's internal packages: an API change that breaks it fails
# here instead of at the next benchmark run.
benchmod:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# ci runs the tests once without -race as well: allocation pins such as
# the GPU model's TestAllocsIndependentOfWaveCount skip themselves under
# the race detector, which drops sync.Pool items on purpose.
ci: fmt vet build fma test race microbench benchmod
