GO ?= go

.PHONY: build test race vet check test-runner bench bench-parallel profile

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# vet runs go vet, fails on any file gofmt would change, and fails when a
# declaration under internal/ is reached by no program (scripts/deadcode,
# with its allowlist in scripts/deadcode/allow.txt).
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l reports unformatted files:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./scripts/deadcode

# race runs the whole tree under the race detector.
race:
	$(GO) test -race ./...

# test-runner exercises the parallel sweep-runner subsystem (and the
# experiment drivers built on it) under the race detector.
test-runner:
	$(GO) test -race ./internal/runner ./internal/core

# check is the CI gate: static analysis plus the full race-detector run.
check: vet race

# bench runs the whole Benchmark* suite with -benchmem and writes a
# machine-readable BENCH_<date>.json baseline (scripts/bench.sh).
bench:
	./scripts/bench.sh

# bench-parallel measures what the worker pool buys on a sweep grid.
bench-parallel:
	$(GO) test -run '^$$' -bench 'Parallelism' -benchtime 1x .

# profile runs a representative query under the CPU and heap profilers and
# dumps the machine-readable run report; inspect with `go tool pprof`.
profile:
	mkdir -p profiles
	$(GO) run ./cmd/samsim -design SAM-en -bench Q3 \
		-cpuprofile profiles/samsim.cpu.pprof -memprofile profiles/samsim.mem.pprof \
		-stats-json profiles/samsim.stats.json
	@echo "wrote profiles/samsim.{cpu,mem}.pprof and profiles/samsim.stats.json"
