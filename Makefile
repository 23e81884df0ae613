# Local invocations identical to CI's blocking gates.

GO ?= go

# The bench recipe needs pipefail, which POSIX sh (dash on Debian and
# Ubuntu) lacks; CI's bench job runs bash as well.
SHELL := /bin/bash

.PHONY: build test lint vettool fmt tidy bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint is the exact command CI runs as its blocking static-analysis
# step: the cloverlint invariant suite (mapiter, exactbits, ctxflow,
# nondet) over every package. Exit 0 clean, 1 findings, 2 load failure.
lint:
	$(GO) run ./cmd/cloverlint ./...

# vettool runs the same suite through go vet's unitchecker protocol —
# per-package caching, dependency export data from the build cache.
vettool:
	$(GO) build -o $(or $(TMPDIR),/tmp)/cloverlint ./cmd/cloverlint
	$(GO) vet -vettool=$(or $(TMPDIR),/tmp)/cloverlint ./...

# bench mirrors CI's bench-baseline job: the same benchmark set, piped
# through benchjson into BENCH_sweep.json. Compare two runs with
#   $(GO) run ./cmd/benchjson -compare old.json BENCH_sweep.json
BENCH_RAW = $(or $(TMPDIR),/tmp)/bench_raw.txt

bench:
	set -o pipefail; \
	{ $(GO) test -run - -bench 'BenchmarkEngineThroughput|BenchmarkEngineWarmCampaign' ./internal/sweep && \
	  $(GO) test -run - -bench 'Range$$' ./internal/memsim && \
	  $(GO) test -run - -bench 'BenchmarkRunTraffic$$' ./internal/cloverleaf && \
	  $(GO) test -run - -bench 'BenchmarkExpandStreaming$$' ./internal/sweepd && \
	  $(GO) test -run - -bench 'BenchmarkStoreOpen' -timeout 25m ./internal/store && \
	  $(GO) test -run - -bench 'BenchmarkAdaptiveVsExhaustive' ./internal/search; } | tee $(BENCH_RAW)
	$(GO) run ./cmd/benchjson < $(BENCH_RAW) > BENCH_sweep.json
	@echo wrote BENCH_sweep.json

fmt:
	gofmt -l -w .

tidy:
	$(GO) mod tidy
