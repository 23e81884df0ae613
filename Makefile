# Local invocations identical to CI's blocking gates.

GO ?= go

.PHONY: build test lint fmt tidy

build:
	$(GO) build ./...

# test runs the repository's tests, then the campaign benchmark module
# (benchmark/, its own module) as CI's test job does: vet, tidiness,
# its tests, and every workload shape on a four-cell grid through the
# real cmd/sweep path, with its correctness gates and the traced pass.
test:
	$(GO) test ./...
	$(GO) -C benchmark vet .
	$(GO) -C benchmark mod tidy -diff
	$(GO) -C benchmark test .
	sh benchmark/run.sh -smoke -seconds 0 -trace 1

# lint is the exact command CI runs as its blocking static-analysis
# step: the cloverlint invariant suite (mapiter, exactbits, ctxflow,
# nondet) over every package. Exit 0 clean, 1 findings, 2 load failure.
lint:
	$(GO) run ./cmd/cloverlint ./...

fmt:
	gofmt -l -w .

tidy:
	$(GO) mod tidy
