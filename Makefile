# Targets mirror .github/workflows/ci.yml exactly, so local runs and CI
# cannot drift: `make ci` is what the pipeline runs.

GO ?= go

.PHONY: all build test test-serve test-faults test-format bench bench-smoke bench-disk bench-commit bench-recalc soak loc lint staticcheck fmt ci

# Rounds for the crash-fuzz soak (`make soak`); ~200 is 60-90s locally.
SOAK_ROUNDS ?= 200

all: build

build:
	$(GO) build ./...

test:
	$(GO) test -race -timeout 10m ./...

# Serving stack and recalc surface alone under the race detector: the cell
# cache's publish and the generation-stamped reads beside it (Publish), the
# engine's own locks — it, not the serving layer, owns the latches — with
# readers beside a bare engine's writers (Concurrent), session lifecycle,
# the disconnect fuzz, plus the one edit pipeline in both recalc modes
# (Pipeline), staleness bits and viewport priority. CI runs this as a
# dedicated step so visibility, latch and executor regressions are named,
# not buried in ./...
test-serve:
	$(GO) test -race -run 'Serve|Recalc|Pending|Viewport|Pipeline|Publish|Concurrent' -timeout 10m -v ./internal/serve/... ./internal/core/... ./internal/cache/...

# Bench smoke: every benchmark executes once so perf code paths (including
# the file-backed pager via BenchmarkDurable*) run on every push.
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# bench/ is a module of its own that the driver builds from this checkout:
# vet it and run its smoke test, so an API change that breaks it fails here
# first.
bench-smoke:
	cd bench && $(GO) vet . && $(GO) test -run TestSmoke .

# Disk-throughput snapshot: measures the batched write path (SetCells, one
# WAL fsync per batch) against per-cell Save on the file-backed pager and
# writes BENCH_disk.json; fails if the speedup drops below 10x.
bench-disk:
	BENCH_DISK_JSON=BENCH_disk.json $(GO) test -run=TestDiskThroughputSnapshot -v .
	@cat BENCH_disk.json

# Commit/persistence snapshot: measures the incremental manifest path (one
# 100-row structural edit persists a delta, not a full re-serialization of
# every positional map) and the snapshot-free Load on the 1M-cell sheet,
# and writes BENCH_commit.json; fails if the incremental save stages less
# than 5x fewer manifest bytes than a full rewrite, or if Load reads more
# than O(formula rows) heap pages.
bench-commit:
	BENCH_COMMIT_JSON=BENCH_commit.json $(GO) test -run=TestCommitSnapshot -v .
	@cat BENCH_commit.json

# Fault-injection suites alone under the race detector: poisoning,
# read-only degradation, WAL rotation/compaction, client retry, the soak
# smoke, the self-healing surface (scrub, vacuum, in-place recovery), and
# the all-or-nothing edit batch (Pipeline). CI runs this as a dedicated step
# so failure-semantics regressions are named, not buried in ./...
test-faults:
	$(GO) test -race -run 'Fault|Poison|Rotation|Segment|ENOSPC|BitFlip|ShortWrite|LegacySingleFileWAL|Retr|ReadOnly|Soak|Scrub|Vacuum|Recover|Maint|Backup|Restore|Archive|PITR|CommitCost|CatalogDDL|Pipeline' -timeout 10m -v ./internal/rdbms/ ./internal/core/ ./internal/workload/soak/ .

# The on-disk format alone: the compat tests over the golden fixture (every
# damaged or foreign-version structure refused by name), ten seconds of each
# manifest decoder's, the cell decoder's and the WAL scanner's fuzz target
# (whose inputs are segments of tens of KB: without -fuzzminimizetime 1x the
# ten seconds go to minimizing the first interesting one), and two guards: no
# non-test file of internal/core or internal/model imports encoding/json —
# both persist in the heap's row codec — and internal/model does not import
# strconv — a number is stored as a typed datum, never as its decimal text.
# The format must not drift back by accident.
test-format:
	$(GO) test -run 'Golden|FormatVersion' -v .
	$(GO) test -run '^$$' -fuzz FuzzFormulaSetDecode -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzStoreManifestDecode -fuzztime 10s ./internal/model/
	$(GO) test -run '^$$' -fuzz FuzzCellDecode -fuzztime 10s ./internal/model/
	$(GO) test -run '^$$' -fuzz FuzzWALScan -fuzztime 10s -fuzzminimizetime 1x ./internal/rdbms/
	@if $(GO) list -f '{{.ImportPath}}: {{.Imports}}' ./internal/core ./internal/model | grep encoding/json; then \
		echo "internal/core and internal/model persist in the row codec: no encoding/json"; exit 1; \
	fi
	@if $(GO) list -f '{{.Imports}}' ./internal/model | grep -w strconv; then \
		echo "internal/model stores numbers as typed datums: no strconv"; exit 1; \
	fi

# Crash-fuzz soak (~60-90s at the default SOAK_ROUNDS): mixed edits over a
# fault-injected disk with kill-points at WAL rotation and checkpoint
# boundaries; every reopen is byte-compared against a shadow model. Writes
# BENCH_soak.json; fails on torn state, WAL over the rotation budget, or
# reads failing while poisoned.
soak:
	SOAK_SEEDS=100 $(GO) test -run=TestSoakSeeds -timeout 10m -v ./internal/workload/soak/
	BENCH_SOAK_JSON=BENCH_soak.json SOAK_ROUNDS=$(SOAK_ROUNDS) $(GO) test -run=TestSoakCrashFuzz -timeout 20m -v .
	@cat BENCH_soak.json

# Async-recalc snapshot (LazyBrowsing): one tick into a >=100k-cell
# dependency cone on the background dispatcher, and writes
# BENCH_recalc.json; fails if the registered viewport converges less than
# 10x sooner than the same engine's full drain of that tick (an absolute
# pair from one engine, not a ratio against the inline path), or if the
# drained background state diverges from the synchronous shadow engine.
bench-recalc:
	BENCH_RECALC_JSON=BENCH_recalc.json $(GO) test -run=TestRecalcSnapshot -v .
	@cat BENCH_recalc.json

# Non-test Go lines per package (bench/ is the driver's, not counted) and
# the total — the size half of the trajectory: ROADMAP tracks it alongside
# the perf numbers.
loc:
	@for d in $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -exec dirname {} \; | sort -u); do \
		printf '%6d %s\n' $$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs cat | wc -l) $$d; \
	done
	@printf '%6d total\n' $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l)

lint:
	$(GO) vet ./...
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; \
	fi

# Mirrors the staticcheck CI job. The binary is installed there with
# `go install honnef.co/go/tools/cmd/staticcheck@2025.1.1`; locally we
# skip (with a note) when it is not on PATH rather than hitting the
# network from a build target.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI pins honnef.co/go/tools/cmd/staticcheck@2025.1.1)"; \
	fi

fmt:
	gofmt -w .

ci: lint staticcheck build loc test test-serve test-faults test-format bench bench-smoke bench-disk bench-commit bench-recalc soak
