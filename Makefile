GO ?= go

.PHONY: build fmt vet test race chaos microbench fuzz benchmod ci

build:
	$(GO) build ./...

# fmt fails when any file needs gofmt, printing the offenders.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# race runs every test under the race detector. The scheduler's cost
# gate keeps fine-grained windows on the calling goroutine, so the tests
# that put components on real pool goroutines are the ones built to open
# it: the chatter ring with a primed gate and the heavy-window ring in
# internal/sim, and the lockstep KVM cores in internal/sim/cpu. Any
# cross-component data race the barrier protocol misses surfaces there.
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
# simulation kernel (event chain, port ping-pong, one-active-of-nine
# window), of the store (journal append, 480-document batch commit
# with its fsync count, a 2 KiB blob archive with its fsyncs/put — 1 —
# and creates/put — 0, the blob pack being open — count by plain index
# vs by scan at 10k documents, the filter matcher), of simcache run-key
# derivation, and
# of a 64-run warm relaunch on a journaled store (ns/run, the runs
# records each replayed run commits, and the runs-journal fsyncs per
# run: 1/64, one commit per launch batch) for a fixed 200 iterations, and
# the GPU model's BenchmarkRunTable4 (all 58 Table IV cells per
# iteration, with Mops/s) for 5, as one iteration takes ~0.2 s: a
# smoke run that keeps them building and shows allocs/op, not a timing.
microbench:
	$(GO) test -run '^$$' -bench . -skip RunTable4 -benchtime 200x ./internal/sim/... ./internal/database/... \
		./internal/simcache/... ./internal/core/launch/...
	$(GO) test -run '^$$' -bench RunTable4 -benchtime 5x ./internal/sim/gpu/

# fuzz runs each Fuzz* target for a fixed 30 s beyond its committed
# seeds (testdata/fuzz/, which go test alone replays). A crasher that
# turns up is committed there as a seed with its fix. Not part of ci:
# it is a search, not a gate.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzResultsFromDoc$$' -fuzztime 30s ./internal/core/run/
	$(GO) test -run '^$$' -fuzz '^FuzzBlobPack$$' -fuzztime 30s ./internal/database/
	$(GO) test -run '^$$' -fuzz '^FuzzWaveRNG$$' -fuzztime 30s ./internal/sim/gpu/

# benchmod vets and tests the benchmark module, which builds against
# this module's internal packages: an API change that breaks it fails
# here instead of at the next benchmark run.
benchmod:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# ci runs the tests once without -race as well: allocation pins such as
# the GPU model's TestAllocsIndependentOfWaveCount skip themselves under
# the race detector, which drops sync.Pool items on purpose.
ci: fmt vet build test race microbench benchmod
