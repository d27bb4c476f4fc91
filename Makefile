GO ?= go

.PHONY: build test vet race harness-smoke bench blockconnect reorg relay-bench sync-bench channel-bench city-bench bench-gate bench-e2e-gate bench-scaling lint fuzz chaos chaos-byzantine unreached ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Full race-detector pass; the concurrent validation and RPC tests are
# the interesting part.
race:
	$(GO) test -race ./...

# benchmark/ is its own module and a frozen contract: vet and test it
# against this tree, so a change to anything it compiles against
# (Ledger().UTXO(), Wallet().Balance, BuildPayment, the actor methods)
# shows here and not in the driver's benchmark run.
harness-smoke:
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark ./...

# One iteration of every figure/table bench, including BenchmarkBlockConnect.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# Every campaign CI gates: one row of experiments.Benches each. A new
# campaign is one row there and one word here.
BENCH_KINDS := blockconnect reorg relay sync channel city

# Where bench-gate and bench-scaling put fresh measurements.
BENCH_CANDIDATE ?= /tmp/bcwan-bench-candidate
BENCH_SERIAL ?= /tmp/bcwan-bench-serial

# Regenerate results/BENCH_<kind>.json; commit the result to move the CI
# regression baseline. sync takes minutes, the rest seconds.
blockconnect reorg:
	$(GO) run ./cmd/bcwan-bench -only $@
relay-bench sync-bench channel-bench city-bench:
	$(GO) run ./cmd/bcwan-bench -only $(@:-bench=)

# What the CI bench-regression job runs: re-measure into a scratch
# directory and gate against the committed baselines.
bench-gate:
	for k in $(BENCH_KINDS); do \
		$(GO) run ./cmd/bcwan-bench -only $$k -results $(BENCH_CANDIDATE) || exit 1; \
	done
	for k in $(BENCH_KINDS); do \
		$(GO) run ./cmd/bcwan-benchgate -kind $$k \
			-baseline results/BENCH_$$k.json \
			-candidate $(BENCH_CANDIDATE)/BENCH_$$k.json || exit 1; \
	done

# HEAD against its parent on the end-to-end harness (benchmark/run.sh,
# sim_federation, facade_onchain, tcp_channel and tcp_onchain, seeds
# 1-3, interleaved), gated only on what a shared host cannot move:
# allocations per delivery, failed deliveries and simulated time. Time
# rows are printed, not gated. Needs HEAD~1 in the clone; see
# scripts/bench-e2e-gate.sh.
BENCH_E2E_DIR ?= /tmp/bcwan-bench-e2e
bench-e2e-gate:
	bash scripts/bench-e2e-gate.sh $(BENCH_E2E_DIR)

# What the CI connect-scaling step runs: measure block connect pinned
# to one core, then require the all-cores run to beat it by the
# committed floor. The all-cores document is the one bench-gate already
# wrote to $(BENCH_CANDIDATE); it is measured here only when missing.
# Meaningful only on a multicore machine.
bench-scaling:
	GOMAXPROCS=1 $(GO) run ./cmd/bcwan-bench -only blockconnect -results $(BENCH_SERIAL)
	test -f $(BENCH_CANDIDATE)/BENCH_blockconnect.json || \
		$(GO) run ./cmd/bcwan-bench -only blockconnect -results $(BENCH_CANDIDATE)
	$(GO) run ./cmd/bcwan-benchgate -kind connect-scaling \
		-baseline $(BENCH_SERIAL)/BENCH_blockconnect.json \
		-candidate $(BENCH_CANDIDATE)/BENCH_blockconnect.json

# Static analysis. CI installs the tools; locally:
#   go install honnef.co/go/tools/cmd/staticcheck@latest
#   go install golang.org/x/vuln/cmd/govulncheck@latest
lint:
	staticcheck ./...
	govulncheck ./...

# Coverage-guided smoke of every hostile-input surface: the script
# verifier (consensus-critical) and its template matchers against
# Parse-based references, plus the decoders fed by
# unauthenticated peers — directory bindings, the TCP transport's frame
# body, and the payload decoders p2p.Handle charges for: channel, sync
# and delivery messages on the shared p2p Reader, relay and
# compact-block bodies — keygen's fixed-width primality tests
# (the base-2 prefilter and the whole verdict) and the RSA-512
# exponentiations, CRT signing and input checks against math/big, the
# durable log's replay and the chain store's load of arbitrary records. CI's fuzz smoke runs this
# target; only the nightly matrix repeats the list.
fuzz:
	$(GO) test -fuzz='^FuzzVerify$$' -fuzztime=30s -run '^$$' ./internal/script/
	$(GO) test -fuzz=FuzzVerifyReference -fuzztime=15s -run '^$$' ./internal/script/
	$(GO) test -fuzz=FuzzTemplates -fuzztime=15s -run '^$$' ./internal/script/
	$(GO) test -fuzz=FuzzDecodeBinding -fuzztime=15s -run '^$$' ./internal/registry/
	$(GO) test -fuzz=FuzzChannelMsgDecode -fuzztime=15s -run '^$$' ./internal/p2p/
	$(GO) test -fuzz=FuzzSyncMsgDecode -fuzztime=15s -run '^$$' ./internal/p2p/
	$(GO) test -fuzz=FuzzRelayMsgDecode -fuzztime=15s -run '^$$' ./internal/p2p/
	$(GO) test -fuzz=FuzzFrameDecode -fuzztime=15s -run '^$$' ./internal/p2p/
	$(GO) test -fuzz=FuzzDeliveryMsgDecode -fuzztime=15s -run '^$$' ./internal/daemon/
	$(GO) test -fuzz=FuzzSPRP2 -fuzztime=15s -run '^$$' ./internal/bccrypto/
	$(GO) test -fuzz=FuzzPrime256 -fuzztime=15s -run '^$$' ./internal/bccrypto/
	$(GO) test -fuzz=FuzzRSA512Exp -fuzztime=15s -run '^$$' ./internal/bccrypto/
	$(GO) test -fuzz=FuzzLogReplay -fuzztime=15s -run '^$$' ./internal/durable/
	$(GO) test -fuzz=FuzzStoreLoad -fuzztime=15s -run '^$$' ./internal/daemon/

# Fault-injection scenario table under the race detector. Every run
# logs each scenario's RNG seed; replay a failure with
#   make chaos CHAOS_SEED=<seed>
chaos:
	CHAOS_SEED=$(CHAOS_SEED) $(GO) test -race -count=1 -v -run 'TestFaultScenarios|TestChannelFaultScenarios|TestStoreCrashScenarios|TestLiveSyncHealsPartition' ./internal/chaos

# Byzantine adversary campaign under the race detector: adversarial
# gateways (key withholding, replays, eclipse, private mining, forged
# bindings) against the reputation-weighted admission defense. Replay a
# failure with
#   make chaos-byzantine CHAOS_SEED=<seed>
chaos-byzantine:
	CHAOS_SEED=$(CHAOS_SEED) $(GO) test -race -count=1 -v -run 'TestByzantineScenarios' ./internal/chaos

# Every function and method of internal/ (but the internal/chaos test
# harness) and the root package that no cmd/*, examples/* or benchmark
# binary links: a report for dead-code sweeps, not a gate
# (scripts/unreached.sh).
unreached:
	bash scripts/unreached.sh

ci: vet race harness-smoke
