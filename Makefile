# Tier-1 entry points. `make` = build + test.

GO ?= go

.PHONY: all build test bench bench-json bench-store bench-parallel bench-opt bench-index bench-check bench-baseline cover fmt-check fuzz explain explain-update vet lint ci clean loadsmoke obs-check cache-check index-check xbench-smoke pins-check

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt-check fails (listing the files) when anything is not gofmt-clean;
# CI runs it in the lint job.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Static analysis beyond vet: staticcheck (bug patterns, simplifications)
# and govulncheck (call-graph-reachable known vulnerabilities). CI installs
# the pinned versions below (see .github/workflows/ci.yml); locally the
# target runs whatever is on PATH and skips — loudly — when a tool is
# missing, so `make lint` never requires network access.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not on PATH, skipping (CI pins $(STATICCHECK_VERSION))"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not on PATH, skipping (CI pins $(GOVULNCHECK_VERSION))"; \
	fi

# Coverage floors for internal/algebra (the columnar executor) and
# internal/algebra/opt (the plan optimizer) — each package is profiled and
# gated on its own, then the profiles merge into cover.out (uploaded as a
# CI artifact). The floor sits a few points under the current levels
# (~80% / ~95%) so honest refactors pass but untested rewrites fail.
COVER_FLOOR ?= 75
COVER_PKGS ?= ./internal/algebra ./internal/algebra/opt
cover:
	@rm -f cover.out; first=1; \
	for pkg in $(COVER_PKGS); do \
		$(GO) test -coverprofile=cover.pkg.out $$pkg || { rm -f cover.pkg.out; exit 1; }; \
		total=$$($(GO) tool cover -func=cover.pkg.out | awk '/^total:/ { gsub("%", "", $$3); print $$3 }'); \
		echo "$$pkg coverage: $$total% (floor $(COVER_FLOOR)%)"; \
		awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t + 0 < f + 0) ? 1 : 0 }' || \
			{ echo "coverage below floor in $$pkg"; rm -f cover.pkg.out; exit 1; }; \
		if [ $$first = 1 ]; then cp cover.pkg.out cover.out; first=0; \
		else tail -n +2 cover.pkg.out >> cover.out; fi; \
	done; rm -f cover.pkg.out

# Overload smoke: a 5-second open-loop xqload burst (150 req/s, mixed
# query classes including a non-converging recursion) against an
# in-process xqd configured with a deliberately tiny capacity. Gates the
# degradation contract: zero 5xx, overflow shed as 429 + Retry-After,
# nonzero goodput, and a p99 bounded by the queue + query deadlines.
loadsmoke:
	$(GO) test -race -run TestLoadSmoke -count=1 -v ./cmd/xqd

# Observability gate: over the differential seed block, every engine ×
# mode × optimizer level × worker count configuration is evaluated with
# tracing off and with a live span recorder attached, and the two runs
# must agree byte for byte on results, errors, and fixpoint statistics.
# Proves the obs layer is read-only instrumentation, never a participant.
# The round-stats half pins the per-round fed/delta trace spans -O0 vs
# -O1: the delta-fed step rewrite may shrink what steps consume, never
# what the fixpoint feeds back or how many rounds it takes.
obs-check:
	$(GO) test -run 'TestTracingParity|TestRoundStatsParity' -count=1 ./internal/difftest

# Caching gate: same seed block, every configuration evaluated uncached
# and then under plan cache / result cache / both (each twice, so the
# second pass serves from warm caches). Results, errors, and fixpoint
# statistics must stay byte-identical, and warm caches must record hits.
cache-check:
	$(GO) test -run 'TestCachingParity' -count=1 ./internal/difftest

# Index gate: same seed block, every configuration evaluated with the
# name-index probe path disabled (pure arena scans) and enabled (the
# production default). Results, errors, and fixpoint statistics must stay
# byte-identical, and the probe path must have actually fired somewhere in
# the block.
index-check:
	$(GO) test -run 'TestIndexParity' -count=1 ./internal/difftest

# Benchmark smoke: xbench is its own module, so `go test ./...` at the root
# skips it. Its tests build xqd and run every workload at tiny size, checking
# each answer against the other engine's, so a kernel that changes an
# answer fails here, not only in a benchmark run. (The Table-2 counts in
# xbench/pinned.json are checked by pins-check.)
xbench-smoke:
	cd xbench && $(GO) test ./...

# Pin gate: a short seed-1 run of both Table-2 workloads. At seed 1 xbench
# checks every cell's answer and its Table-2 counts (nodes fed back, depth,
# payload calls) against xbench/pinned.json, and its JSON result line says
# "correct":true only when all of them hold. About 3 s per workload after
# the first build.
pins-check:
	@for w in table2-rel table2-interp; do \
		out=$$(bash xbench/run.sh --workload $$w --seed 1 --seconds 1 --trace 0) || { echo "$$out"; exit 1; }; \
		if echo "$$out" | tail -n 1 | grep -q '"correct":true'; then echo "pins-check: $$w ok"; \
		else echo "$$out"; echo "pins-check: $$w does not match xbench/pinned.json"; exit 1; fi; \
	done

# What CI runs (see .github/workflows/ci.yml). The -race pass covers the
# concurrent store/xqd tests and the parallel fixpoint pools; the plain
# pass runs the differential-harness seed block (internal/difftest); the
# coverage step enforces the internal/algebra floor; loadsmoke gates the
# overload/degradation contract; obs-check gates tracing-on/off parity;
# cache-check gates caches-on/off parity; index-check gates indexed-vs-
# scan parity; xbench-smoke gates the benchmark workloads' answers;
# pins-check gates the pinned Table-2 counts.
ci:
	$(GO) build ./...
	$(GO) vet ./...
	$(MAKE) lint
	$(GO) test -race ./...
	$(MAKE) fuzz FUZZTIME=10s
	$(MAKE) cover
	$(MAKE) obs-check
	$(MAKE) cache-check
	$(MAKE) index-check
	$(MAKE) loadsmoke
	$(MAKE) xbench-smoke
	$(MAKE) pins-check

# Differential fuzzing: random documents + random fixpoint queries, every
# engine/mode/optimizer-level/worker-count combination must agree byte for
# byte. CI runs a short smoke; leave FUZZTIME unset locally for an
# open-ended hunt.
FUZZTIME ?= 60s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzDifferential -fuzztime $(FUZZTIME) ./internal/difftest

# Plan-shape gate: diff the explain renderings (raw + optimized plans with
# property annotations, operator counts) of the paper's query families
# against the pinned goldens in internal/algebra/opt/testdata. Any rewrite
# that changes a plan's shape fails here (and in CI, via `go test ./...`);
# accept intended changes with `make explain-update` and review the diff.
explain:
	$(GO) test -run 'TestGolden' -count=1 ./internal/algebra/opt

explain-update:
	$(GO) test -run 'TestGolden' -count=1 ./internal/algebra/opt -update
	git --no-pager diff --stat internal/algebra/opt/testdata

# The Table 2 cells tracked across PRs (see EXPERIMENTS.md, BENCH_1.json).
bench:
	$(GO) test -run '^$$' -bench 'IFPCore|BidderNetworkSmall' -benchmem

# next-bench prints the first unused BENCH_<n>.json name, so snapshots
# accrue as a trajectory instead of overwriting each other. Only the
# numbered trajectory files count: BENCH_baseline.json (the committed CI
# gate baseline) and BENCH_pr.json (the transient bench-check snapshot,
# removed by `make clean`) never shift the numbering.
define next-bench
$$(n=1; while [ -e BENCH_$$n.json ]; do n=$$((n+1)); done; echo BENCH_$$n.json)
endef

# BENCH_CHECK_EXPS is the short bench-gate workload, kept to minutes per
# PR while covering both relational fixpoint algorithms. T2.1 is the
# shallow bidder cell; T2.4 (huge bidder network) is the step-dominated
# cell where the interpreter's name-index probes buy 4.5× over arena
# scans, so index-path regressions gate here; T2.8 (hospital pedigrees)
# is the deep-recursion cell whose optimized plan carries the delta-fed
# step rewrite (recdelta), so per-round step cost regressions on the
# delta path gate here. Regenerate the committed baseline
# (bench-baseline) whenever a PR moves these numbers on purpose.
BENCH_CHECK_EXPS ?= T2.1,T2.4,T2.8

# bench-check is the CI regression gate: measure the short workload into
# BENCH_pr.json and compare against the committed BENCH_baseline.json.
# allocs/op is deterministic and machine-independent, so it carries the
# tight 25% gate; ns/op is measured on whatever runner CI hands out while
# the baseline came from another machine entirely, so it only catches
# catastrophic (>2×) slowdowns — anything tighter would flake on runner
# variance rather than code. All cells gate — the interpreter cells are
# where the index-probe path shows, the relational cells where the
# fixpoint fabric does.
bench-check:
	$(GO) run ./cmd/ifpbench -exp $(BENCH_CHECK_EXPS) -json BENCH_pr.json
	$(GO) run ./cmd/benchdiff -baseline BENCH_baseline.json -current BENCH_pr.json \
		-cells '' -ns-tolerance 1.0 -allocs-tolerance 0.25

# bench-baseline refreshes the committed gate baseline from the same
# workload bench-check measures.
bench-baseline:
	$(GO) run ./cmd/ifpbench -exp $(BENCH_CHECK_EXPS) -json BENCH_baseline.json

# Machine-readable snapshot of the full-size experiments.
bench-json:
	@out=$(next-bench); echo "writing $$out"; $(GO) run ./cmd/ifpbench -json $$out

# Document store benchmarks: cold parse vs snapshot read vs mmap open,
# plus cold-/warm-cache query latency.
bench-store:
	@out=$(next-bench); echo "writing $$out"; $(GO) run ./cmd/ifpbench -store -json $$out

# Worker-count sweep over the fixpoint workloads (see BENCH_3.json):
# every cell measured at 1/2/4/8 fixpoint workers.
bench-parallel:
	@out=$(next-bench); echo "writing $$out"; $(GO) run ./cmd/ifpbench -parallel 1,2,4,8 -json $$out

# Optimizer sweep (see BENCH_5.json): every cell measured with the plan
# optimizer off and on (…/O=0 and …/O=1 entries), so what the rewrite
# layer buys per cell stays diffable across PRs.
bench-opt:
	@out=$(next-bench); echo "writing $$out"; $(GO) run ./cmd/ifpbench -opt-sweep -json $$out

# Index sweep (see BENCH_10.json): every cell measured with name-index
# probing off and on (…/ix=0 and …/ix=1 entries), so what the persistent
# snapshot indexes buy per cell stays diffable across PRs.
bench-index:
	@out=$(next-bench); echo "writing $$out"; $(GO) run ./cmd/ifpbench -index-sweep -json $$out

clean:
	rm -f ifpbench xq xqd distcheck xmlgen benchdiff *.test BENCH_snapshot*.json
	rm -f cover.out cover.pkg.out BENCH_pr.json
	rm -rf internal/difftest/testdata/fuzz
