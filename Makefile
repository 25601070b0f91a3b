# Build, test and reproduce the UDP paper's evaluation.

GO ?= go

.PHONY: all build test bench bench-json bench-compare fmt-check smoke soak-short soak fuzz-smoke race check examples reproduce reproduce-paper clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

fmt-check:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# End-to-end server check: build udpserved, serve a random port, stream a
# gzip'd CSV through POST /v1/transform/csvparse, verify output + metrics,
# then drain with SIGTERM.
smoke:
	$(GO) run ./scripts/smoke

# Soak/chaos harness (docs/SOAK.md): udploader launches udpserved, drives a
# mixed workload with fault injection and mid-run kills, and exits non-zero
# on any SLO or leak-invariant violation.
soak-short:
	$(GO) run ./cmd/udploader -recipe scripts/soak/recipes/short.json

soak:
	$(GO) run ./cmd/udploader -recipe scripts/soak/recipes/nightly.json

race:
	$(GO) test -race ./internal/load ./internal/machine ./internal/memsys ./internal/sched ./internal/server ./internal/kernels/... .

# Short fuzz passes over the hostile-input surfaces: the fault-injection
# spec parser, the record chunker, the lane's three execution tiers
# (inputs and cycle budgets that must run bit-identically on each), and
# EffCLiP layout of random programs (images must keep both signature-safety
# properties).
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzParseInjectSpec -fuzztime=10s ./internal/fault
	$(GO) test -run=NONE -fuzz=FuzzRecords -fuzztime=10s ./internal/sched
	$(GO) test -run=NONE -fuzz=FuzzCompiledDiff -fuzztime=10s ./internal/machine
	$(GO) test -run=NONE -fuzz=FuzzLayout -fuzztime=10s ./internal/effclip

# The CI gate: tier-1 (build + test) plus gofmt, vet, the race detector
# over the whole module, the fuzz smoke, and the udpserved smoke test.
check: fmt-check
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) test -race ./...
	$(MAKE) fuzz-smoke
	$(GO) run ./scripts/smoke

bench:
	$(GO) test -bench=. -benchmem .

# Machine-readable throughput/latency reports for the bench trajectory.
bench-json:
	$(GO) run ./cmd/udpbench -bench exec,server

# Per-kernel throughput deltas between two reports, e.g.
#   make bench-compare OLD=BENCH_exec.json NEW=/tmp/BENCH_exec.json
bench-compare:
	@test -n "$(OLD)" -a -n "$(NEW)" || { echo "usage: make bench-compare OLD=<report.json> NEW=<report.json>"; exit 2; }
	$(GO) run ./cmd/udpbench -compare $(OLD) $(NEW)

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/csvload
	$(GO) run ./examples/logscan
	$(GO) run ./examples/telemetry
	$(GO) run ./examples/queryscan
	$(GO) run ./examples/assembler
	$(GO) run ./examples/genomics
	$(GO) run ./examples/dpi

# CI-sized regeneration of every table and figure.
reproduce:
	$(GO) run ./cmd/udpbench -exp all -o docs/results-scale1.txt

# Paper-sized working sets (the headline geomeans converge here).
reproduce-paper:
	$(GO) run ./cmd/udpbench -exp all -scale 4 -o docs/results-scale4.txt

clean:
	$(GO) clean ./...
