# BlindFL build and test entry points. CI (.github/workflows/ci.yml) invokes
# exactly these targets so local runs reproduce the CI lanes.

GO ?= go

.PHONY: build test test-cpu test-full test-chaos fuzz-kernels bench bench-smoke bench-json bench-selftest serve-smoke shard-smoke examples fmt fmt-check vet lint lint-tools

build:
	$(GO) build ./...

# Short lane: skips the long federated-training suites (testing.Short).
# The -timeout turns a reintroduced protocol hang (e.g. RunParties stuck on
# a one-sided failure) into a fast CI failure instead of a stalled job.
test:
	$(GO) test -short -race -timeout 10m ./...

# Parallelism lane: the process-wide table cache, pool condition-variable
# wait, SecretOps/pool registries and the SecureML triple generator's
# parallel cross terms re-run under the race detector at 1 and 4 CPUs, so
# single-core schedules and real parallelism are both exercised.
test-cpu:
	$(GO) test -short -race -timeout 10m -cpu 1,4 ./internal/paillier/ ./internal/hetensor/ ./internal/secureml/

# Full lane: everything, including the ~4 min federated model suite.
test-full:
	$(GO) test -timeout 30m ./...

# Chaos lane: the run-integrity suite (docs/INTEGRITY.md) — every fault
# class (bit-flip, drop, dup, reorder, delay, mid-run kill) driven through
# the stream transport, the k-session group runtime and full federated
# training, asserting bit-exact recovery or a typed loud failure, never
# silent garbage. Race detector on: fault handling exercises the teardown
# paths where latent races live.
test-chaos:
	$(GO) test -short -race -timeout 10m \
		-run 'TestChaos|TestFault|TestStream|TestDeadline|TestRunGroupFaultConn|TestGroupAllSessionsLost|TestRetry' \
		./internal/transport/ ./internal/protocol/ ./internal/model/ ./internal/serve/

# Kernel fuzz lane: the Montgomery core, the Straus dot tables (public and
# CRT), the fixed-base combs and the CRT exponentiation, each fuzzed against
# big.Int, and the p-only signed decryption against the full CRT Decrypt,
# for FUZZTIME. go test accepts one -fuzz target per run.
FUZZTIME ?= 15s
KERNEL_FUZZ = FuzzMontMul FuzzDotTables FuzzFixedBaseExp FuzzExpCRT FuzzDecryptSigned

fuzz-kernels:
	@for f in $(KERNEL_FUZZ); do \
		echo "fuzz $$f"; \
		$(GO) test -run XXX -fuzz "^$$f\$$" -fuzztime $(FUZZTIME) ./internal/paillier/ || exit 1; \
	done

# Examples lane: compile every example, smoke-run the quickstart and the
# multi-party group runtime.
examples:
	$(GO) build ./examples/...
	$(GO) run ./examples/quickstart -short
	$(GO) run ./examples/multiparty -short

# Throughput-engine benchmarks: packed/pooled encryption and fed-step.
bench:
	$(GO) test -run XXX -bench 'FedStep|Encrypt|MulPlainLeft|PoolEnc|DotRow|MulPlainNeg' -benchtime 10x ./ ./internal/hetensor/ ./internal/paillier/

# Bench smoke lane: every benchmark compiles and runs one iteration so
# benchmark code cannot rot. -short skips the multi-minute paper tables;
# the engine/kernel/fed-step benchmarks all execute.
bench-smoke:
	$(GO) test -run XXX -bench . -benchtime 1x -short -timeout 15m ./...

# Benchmarks as data: the exponentiation-engine and amortized-precompute
# perf suites at a production key size, the end-to-end fed-step, fed-epoch,
# multi-party, sharded-label-party and serve rows, written to
# BENCH_PR14.json (format: internal/bench/README.md). Every row
# with a baseline config also carries a ratio column, and the file opens
# with a fixed-operand calibration op — absolute ns on a shared host swing
# 2× run to run, so the trajectory is judged on ratios, with the calibration
# row bounding how much of a cross-file delta is machine. Earlier points of
# the trajectory (BENCH_PR3.json..BENCH_PR13.json) are kept, not rewritten.
bench-json:
	$(GO) run ./cmd/blindfl-bench -perf BENCH_PR14.json -keybits 2048

# Benchmark self-test lane: blindbench is its own Go module, so the root
# `go test ./...` never builds it. Run every workload in --smoke mode
# (512-bit keys, tiny shapes), untraced and traced, failing unless each
# result line reports "correct":true, then the module's own unit tests.
BENCH_WORKLOADS = train-dense train-sparse-cat serve-open

bench-selftest:
	@for w in $(BENCH_WORKLOADS); do for t in 0 1; do \
		echo "blindbench --workload $$w --trace $$t --smoke"; \
		out=$$(bash blindbench/run.sh --workload $$w --seed 1 --seconds 3 --smoke --trace $$t) || exit 1; \
		echo "$$out" | tail -n 1 | grep -q '"correct":true' || { echo "$$out"; echo "blindbench $$w trace=$$t: not correct"; exit 1; }; \
	done; done
	cd blindbench && $(GO) test ./...

# Shard smoke lane: two real blindfl-shard worker processes on loopback TCP
# plus a 2-shard blindfl-train run against them — the multi-process wiring
# (announce/connect, fingerprint check, deterministic schedule) exercised
# end to end on a toy job. Worker -timeout and the train deadline turn a
# wedged handshake into a fast failure instead of a hung CI job.
shard-smoke: build
	$(GO) build -o bin/blindfl-shard ./cmd/blindfl-shard
	$(GO) build -o bin/blindfl-train ./cmd/blindfl-train
	./scripts/shard-smoke.sh

# Serve smoke lane: train a toy checkpoint, bring up the blindfl-serve
# request batcher on fresh sessions, and fire the closed-loop load generator
# through it with the integrity spot-check on. The command exits non-zero on
# an empty, non-finite or integrity-mismatched response.
serve-smoke:
	$(GO) run ./cmd/blindfl-serve -dataset higgs -train 96 -test 48 -epochs 1 \
		-requests 48 -spotcheck -packed -tablecache 64

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Vet lane: stock go vet, then the repo's own invariant analyzers
# (internal/analyzers, driven by cmd/blindfl-vet over the go vet -vettool
# protocol): bigval, rngstream, teardown, lockguard, floatpure. Suppressions
# are //blindfl:allow directives only; see docs/INVARIANTS.md.
vet:
	$(GO) vet ./...
	$(GO) build -o bin/blindfl-vet ./cmd/blindfl-vet
	$(GO) vet -vettool=$(CURDIR)/bin/blindfl-vet ./...

# Pinned external linters. lint-tools installs them (network needed); lint
# skips any that are absent so offline runs still exercise blindfl-vet.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

lint-tools:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

# Lint lane: blindfl-vet (always), then staticcheck and govulncheck when
# installed. CI runs lint-tools first so both always run there.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (make lint-tools)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		echo "govulncheck ./..."; govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (make lint-tools)"; \
	fi
