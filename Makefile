# Single source of truth for the commands CI and humans run.
GO ?= go

# Pinned external tool versions, extracted from tools.go (the single
# source of truth) and run via `go run module@version` so the module's
# own dependency graph stays empty.
STATICCHECK_MODULE  := $(shell sed -n 's/.*StaticcheckModule  = "\(.*\)".*/\1/p' tools.go)
STATICCHECK_VERSION := $(shell sed -n 's/.*StaticcheckVersion = "\(.*\)".*/\1/p' tools.go)
GOVULNCHECK_MODULE  := $(shell sed -n 's/.*GovulncheckModule  = "\(.*\)".*/\1/p' tools.go)
GOVULNCHECK_VERSION := $(shell sed -n 's/.*GovulncheckVersion = "\(.*\)".*/\1/p' tools.go)

.PHONY: all build test race bench bench-load bench-micro profile-round loc smoke-pipeline smoke-churn smoke-processes smoke-restart soak soak-short fuzz-smoke csmlint staticcheck govulncheck lint fmt fmt-check vet ci

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Benchmark smoke run: every benchmark once, no test re-run.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

# The repo's benchmark (BENCHMARK.json): csmload's closed-loop workloads,
# every command validated against an uncoded replay; the last stdout line
# is the result JSON. WORKLOAD=<name> runs one workload, SECONDS=<s>
# overrides the 25 s measurement window.
WORKLOAD ?= all
SECONDS ?= 25
bench-load:
	$(GO) run ./cmd/csmload -workload $(WORKLOAD) -seconds $(SECONDS)

# Micro-benchmark smoke run: the coding kernels (encode/decode, field),
# one TCP link barrier tick on an N=4 loopback mesh, that mesh brought up
# and closed (its handshakes are most of a tcp-* setup_s), one simulated N=64
# result exchange, the batch payload codec every proposal and decision
# passes through, one sim-byz-batched set-up (a new cluster and its
# first batch, where every honest node runs the full decoder), the
# two simulated shapes' steady state with their allocations per op (an
# honest N=64 round and a B=8 batch with 21 liars), and one simulated
# Dolev-Strong instance at N=10, b=2, whose signature checks dominate it.
bench-micro:
	$(GO) test -bench='BenchmarkLCCEncode|BenchmarkLCCDecode' -benchtime=1x -run='^$$' ./internal/lcc/
	$(GO) test -bench='BenchmarkFieldKernels' -benchtime=1x -run='^$$' ./internal/field/
	$(GO) test -bench='BenchmarkTCPTick|BenchmarkNetworkTick' -benchtime=100x -benchmem -run='^$$' ./internal/transport/
	$(GO) test -bench='BenchmarkTCPMeshDial' -benchtime=10x -run='^$$' ./internal/transport/
	$(GO) test -bench='BenchmarkBatchCodec' -benchtime=1000x -run='^$$' ./internal/csm/
	$(GO) test -bench='BenchmarkByzantineSetup' -benchtime=1x -run='^$$' ./internal/csm/
	$(GO) test -bench='^(BenchmarkHonestRound|BenchmarkByzantineBatch)$$' -benchtime=20x -benchmem -run='^$$' ./internal/csm/
	$(GO) test -bench='^BenchmarkConsensusDolevStrong$$' -benchtime=10x -benchmem -run='^$$' .

# Profile of one internal/csm benchmark for PROFILE_TIME, written to
# bin/round.pprof with its test binary beside it, then printed.
# PROFILE_KIND picks the profile: cpu (default; printed by cumulative
# share) or allocs (every allocation sampled, -memprofilerate=1; printed
# by alloc_objects, flat). PROFILE_BENCH picks the benchmark:
# BenchmarkHonestRound (default; one honest round at sim-honest's shape,
# N=64, K=22, b=21, default fan-out), BenchmarkByzantineBatch (one B=8
# batch at sim-byz-batched's shape) or BenchmarkByzantineSetup (a new
# cluster of that shape and its first batch: the first detection's full
# decodes).
PROFILE_TIME ?= 8s
PROFILE_BENCH ?= BenchmarkHonestRound
PROFILE_KIND ?= cpu
PROFILE_FLAGS_cpu := -cpuprofile round.pprof
PROFILE_FLAGS_allocs := -memprofile round.pprof -memprofilerate=1
PROFILE_TOP_cpu := -top -cum
PROFILE_TOP_allocs := -sample_index=alloc_objects -top
profile-round:
	@case '$(PROFILE_KIND)' in cpu|allocs) ;; *) echo "PROFILE_KIND must be cpu or allocs" >&2; exit 2;; esac
	@mkdir -p bin
	$(GO) test -run='^$$' -bench='^$(PROFILE_BENCH)$$' -benchtime=$(PROFILE_TIME) \
		-o bin/csm.test -outputdir $(abspath bin) $(PROFILE_FLAGS_$(PROFILE_KIND)) ./internal/csm/
	$(GO) tool pprof $(PROFILE_TOP_$(PROFILE_KIND)) bin/csm.test bin/round.pprof

# The design aim's tracked number: non-test Go lines, repo-wide and in
# the engine package. Test fixtures under testdata/ are not counted. The
# single-process examples' stdout is checked by go test ./examples/...
# (each example's main_test.go pins it), which make test and make race
# run.
loc:
	@echo "non-test Go lines, repo:         $$(find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | xargs cat | wc -l)"
	@echo "non-test Go lines, internal/csm: $$(find internal/csm -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | xargs cat | wc -l)"

# One pipelined + batched end-to-end configuration (CI smoke): Byzantine
# nodes, Dolev-Strong consensus, pipeline depth 4, 4-round batches.
smoke-pipeline:
	$(GO) run ./cmd/csmsim -n 16 -b 3 -byz 1,5,9 -rounds 8 -consensus dolev-strong -pipeline 4 -batch 4

# Churn end-to-end configuration under the race detector (CI smoke): a
# node crashes and rejoins via coded-state repair while the adversary
# moves, on the parallel engine.
smoke-churn:
	$(GO) run -race ./cmd/csmsim -n 16 -b 3 -rounds 8 -consensus dolev-strong \
		-churn "1:crash:2,3:rejoin:2,4:corrupt:5:wrong,6:release:5"

# The multi-process deployment end to end (CI smoke), once per consensus
# mode: bootstrap a 4-node localhost cluster of csmnode OS processes over
# the TCP transport, drive a workload (socket ingress under the oracle
# sequencer, symmetric seeded rounds under the BFT protocols), and
# require outputs and run digests bit-identical to the in-memory
# simulated oracle. The last run crashes the PBFT view-0 leader mid-run
# and requires the survivors to finish via view change.
smoke-processes:
	$(GO) build -o bin/csmnode ./cmd/csmnode
	$(GO) run ./examples/processes -csmnode bin/csmnode -n 4 -k 2 -rounds 8 -timeout 2m
	$(GO) run ./examples/processes -csmnode bin/csmnode -n 4 -k 2 -degree 1 -faults 1 -consensus dolev-strong -rounds 8 -timeout 2m
	$(GO) run ./examples/processes -csmnode bin/csmnode -n 4 -k 2 -degree 1 -faults 1 -consensus pbft -rounds 8 -timeout 2m
	$(GO) run ./examples/processes -csmnode bin/csmnode -n 4 -k 2 -degree 1 -faults 1 -consensus pbft -rounds 8 -kill-leader -timeout 3m

# Durable crash-restart end to end (CI smoke): a race-instrumented
# 4-node durable csmnode cluster is whole-cluster SIGKILLed mid-workload
# (plus one injected mid-record crash), restarted from its WALs and coded
# snapshots each time, and must finish bit-identical to the in-memory
# oracle.
smoke-restart:
	$(GO) build -race -o bin/csmnode ./cmd/csmnode
	$(GO) run ./examples/restart -csmnode bin/csmnode -timeout 4m

# Duration-bounded churn + crash soak: in-process MovingAdversary and
# crash/repair churn interleaved with random whole-cluster SIGKILL and
# restart of real csmnode processes. `soak` runs for minutes; CI runs the
# seconds-sized `soak-short`.
soak:
	$(GO) build -race -o bin/csmnode ./cmd/csmnode
	$(GO) run -race ./examples/soak -csmnode bin/csmnode -duration 3m

soak-short:
	$(GO) build -race -o bin/csmnode ./cmd/csmnode
	$(GO) run -race ./examples/soak -csmnode bin/csmnode -duration 15s

# Short fuzz runs over the TCP framing and message codec, the simulated
# network's injection admission rule, the WAL record reader, the consensus wire codecs, the batch payload parser, the
# execution result decoder, the delegated-mode message parsers, the node
# store's applied-record and snapshot parsers, the recovery-delta parser, the Gao decoder's dense path against its tree path and the primed
# verified-subset check against the full decoder (CI smoke): the
# checked-in corpus plus a few seconds of new coverage-guided inputs.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzUnmarshalMessage -fuzztime=10s ./internal/transport/
	$(GO) test -run='^$$' -fuzz=FuzzReadFrame -fuzztime=10s ./internal/transport/
	$(GO) test -run='^$$' -fuzz=FuzzInject -fuzztime=10s ./internal/transport/
	$(GO) test -run='^$$' -fuzz=FuzzWALReader -fuzztime=10s ./internal/wal/
	$(GO) test -run='^$$' -fuzz=FuzzConsensusMessage -fuzztime=10s ./internal/consensus/
	$(GO) test -run='^$$' -fuzz=FuzzParseBatchMsg -fuzztime=10s ./internal/csm/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeResult -fuzztime=10s ./internal/csm/
	$(GO) test -run='^$$' -fuzz=FuzzParseDelegatedMsg -fuzztime=10s ./internal/csm/
	$(GO) test -run='^$$' -fuzz=FuzzNodeStoreRecord -fuzztime=10s ./internal/csm/
	$(GO) test -run='^$$' -fuzz=FuzzParseDelta -fuzztime=10s ./internal/csm/
	$(GO) test -run='^$$' -fuzz=FuzzGaoDecode -fuzztime=10s ./internal/rs/
	$(GO) test -run='^$$' -fuzz=FuzzPrimedDecode -fuzztime=10s ./internal/lcc/

# csmlint: the repo's own analyzer suite (determinism, wire-codec, and
# crash-safety invariants; see internal/lint/README.md), run through the
# cmd/go vet driver so findings carry standard vet formatting and caching.
csmlint:
	$(GO) build -o bin/csmlint ./cmd/csmlint
	$(GO) vet -vettool=$(abspath bin/csmlint) ./...

# staticcheck at the version pinned in tools.go. `go run` resolves the
# pinned module directly — no install step, no silently-skipped check;
# without network access this fails loudly instead.
staticcheck:
	$(GO) run $(STATICCHECK_MODULE)@$(STATICCHECK_VERSION) ./...

# Known-vulnerability scan over the module and its (standard-library)
# dependency surface, pinned in tools.go.
govulncheck:
	$(GO) run $(GOVULNCHECK_MODULE)@$(GOVULNCHECK_VERSION) ./...

# The full static-analysis gate CI runs: csmlint first (offline, catches
# seeded protocol-invariant violations before anything needs a network),
# then staticcheck and govulncheck at their pinned versions.
lint: csmlint staticcheck govulncheck

fmt:
	gofmt -w .

# Fails (and lists the files) if anything is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

ci: fmt-check vet lint build race bench bench-micro smoke-pipeline smoke-churn smoke-processes smoke-restart soak-short fuzz-smoke
