GO ?= go

.PHONY: build test vet race bench blockconnect reorg relay-bench sync-bench channel-bench city-bench bench-gate bench-scaling lint fuzz chaos chaos-byzantine ci

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

# One iteration of every figure/table bench, including BenchmarkBlockConnect.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# Regenerate results/BENCH_blockconnect.json (VerifyWorkers x sig-cache
# sweep). Commit the result to move the CI regression baseline.
blockconnect:
	$(GO) run ./cmd/bcwan-bench -only blockconnect

# Regenerate results/BENCH_reorg.json (depth-2 reorg cost vs chain
# length, the undo-journal ablation).
reorg:
	$(GO) run ./cmd/bcwan-bench -only reorg

# Regenerate results/BENCH_relay.json (16-node mesh wire bytes,
# propagation time and compact hit rate of the inventory/compact
# relay). The committed file also holds the row measured for the
# full-payload flood the relay replaced; regenerating drops it.
relay-bench:
	$(GO) run ./cmd/bcwan-bench -only relay

# Regenerate results/BENCH_sync.json (height-100k gateway cold start:
# genesis replay vs headers + snapshot bootstrap). Takes minutes.
sync-bench:
	$(GO) run ./cmd/bcwan-bench -only sync

# Regenerate results/BENCH_channel.json (delivery settlement:
# per-message on-chain payments vs one batched payment channel).
channel-bench:
	$(GO) run ./cmd/bcwan-bench -only channel

# Regenerate results/BENCH_city.json (the 10k-device metropolitan
# scaling curve: latency, delivery success and settlement chain load
# per tier). Takes seconds.
city-bench:
	$(GO) run ./cmd/bcwan-bench -only city

# What the CI bench-regression job runs: re-measure into a scratch
# directory and gate against the committed baselines.
bench-gate:
	$(GO) run ./cmd/bcwan-bench -only blockconnect -results /tmp/bcwan-bench-candidate
	$(GO) run ./cmd/bcwan-bench -only reorg -results /tmp/bcwan-bench-candidate
	$(GO) run ./cmd/bcwan-bench -only relay -results /tmp/bcwan-bench-candidate
	$(GO) run ./cmd/bcwan-bench -only sync -results /tmp/bcwan-bench-candidate
	$(GO) run ./cmd/bcwan-bench -only channel -results /tmp/bcwan-bench-candidate
	$(GO) run ./cmd/bcwan-bench -only city -results /tmp/bcwan-bench-candidate
	$(GO) run ./cmd/bcwan-benchgate -kind blockconnect \
		-baseline results/BENCH_blockconnect.json \
		-candidate /tmp/bcwan-bench-candidate/BENCH_blockconnect.json
	$(GO) run ./cmd/bcwan-benchgate -kind reorg \
		-baseline results/BENCH_reorg.json \
		-candidate /tmp/bcwan-bench-candidate/BENCH_reorg.json
	$(GO) run ./cmd/bcwan-benchgate -kind relay \
		-baseline results/BENCH_relay.json \
		-candidate /tmp/bcwan-bench-candidate/BENCH_relay.json
	$(GO) run ./cmd/bcwan-benchgate -kind sync \
		-baseline results/BENCH_sync.json \
		-candidate /tmp/bcwan-bench-candidate/BENCH_sync.json
	$(GO) run ./cmd/bcwan-benchgate -kind channel \
		-baseline results/BENCH_channel.json \
		-candidate /tmp/bcwan-bench-candidate/BENCH_channel.json
	$(GO) run ./cmd/bcwan-benchgate -kind city \
		-baseline results/BENCH_city.json \
		-candidate /tmp/bcwan-bench-candidate/BENCH_city.json

# What the CI connect-scaling step runs: measure block connect pinned
# to one core and again on all cores, then require the multicore run to
# beat the pinned one by the committed floor. Meaningful only on a
# multicore machine.
bench-scaling:
	GOMAXPROCS=1 $(GO) run ./cmd/bcwan-bench -only blockconnect -results /tmp/bcwan-bench-serial
	$(GO) run ./cmd/bcwan-bench -only blockconnect -results /tmp/bcwan-bench-candidate
	$(GO) run ./cmd/bcwan-benchgate -kind connect-scaling \
		-baseline /tmp/bcwan-bench-serial/BENCH_blockconnect.json \
		-candidate /tmp/bcwan-bench-candidate/BENCH_blockconnect.json

# Static analysis. CI installs the tools; locally:
#   go install honnef.co/go/tools/cmd/staticcheck@latest
#   go install golang.org/x/vuln/cmd/govulncheck@latest
lint:
	staticcheck ./...
	govulncheck ./...

# Coverage-guided smoke of every hostile-input surface: the script
# verifier (consensus-critical) plus the decoders fed by
# unauthenticated peers — directory bindings, channel messages, sync
# messages.
fuzz:
	$(GO) test -fuzz=FuzzVerify -fuzztime=30s -run '^$$' ./internal/script/
	$(GO) test -fuzz=FuzzDecodeBinding -fuzztime=15s -run '^$$' ./internal/registry/
	$(GO) test -fuzz=FuzzChannelMsgDecode -fuzztime=15s -run '^$$' ./internal/p2p/
	$(GO) test -fuzz=FuzzSyncMsgDecode -fuzztime=15s -run '^$$' ./internal/p2p/

# Fault-injection scenario table under the race detector. Every run
# logs each scenario's RNG seed; replay a failure with
#   make chaos CHAOS_SEED=<seed>
chaos:
	CHAOS_SEED=$(CHAOS_SEED) $(GO) test -race -count=1 -v -run 'TestFaultScenarios|TestChannelFaultScenarios|TestStoreCrashScenarios' ./internal/chaos

# Byzantine adversary campaign under the race detector: adversarial
# gateways (key withholding, replays, eclipse, private mining, forged
# bindings) against the reputation-weighted admission defense. Replay a
# failure with
#   make chaos-byzantine CHAOS_SEED=<seed>
chaos-byzantine:
	CHAOS_SEED=$(CHAOS_SEED) $(GO) test -race -count=1 -v -run 'TestByzantineScenarios' ./internal/chaos

ci: vet race
