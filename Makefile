# Targets mirror .github/workflows/ci.yml exactly, so local runs and CI
# cannot drift: `make ci` is what the pipeline runs.

GO ?= go

.PHONY: all build test test-serve test-faults test-format bench bench-smoke bench-disk bench-commit soak loc lint staticcheck fmt ci

# Rounds for the crash-fuzz soak (`make soak`); ~200 is 60-90s locally.
SOAK_ROUNDS ?= 200

all: build

build:
	$(GO) build ./...

# Every package under the race detector, then ten seconds of the SQL
# front end's fuzz target (parse, bind and run against a live catalog; its
# seeds, the TestSQLCorpus statements, already ran in the first line).
test:
	$(GO) test -race -timeout 10m ./...
	$(GO) test -run '^$$' -fuzz FuzzSQL -fuzztime 10s ./internal/rdbms/

# Serving stack and recalc surface alone under the race detector: the cell
# cache's publish, the pending bits it clears and drops per tile run, and the
# generation-stamped reads beside it (Publish), its typed tiles against every
# read path, a map reference and a per-tile heap bound, and the executor's
# tile reader against Get, evicted tiles and its count of one hit per tile
# (Tile), the engine's write-window latch — it, not the serving layer, keeps
# cold block loads out of a batch's store write through its publish — with
# cold and warm readers beside a bare engine's writers and beside an async
# cold pass whose held tiles they evict (Concurrent), session lifecycle, the
# disconnect fuzz, plus the one edit pipeline in both recalc modes
# (Pipeline), staleness bits and viewport priority, the kept plan reused only
# while the registry and the pending set are unchanged, and then equal to a
# rebuilt one, a ticker tick's cache hits counted per tile and its bytes
# bounded on the kept plan (Recalc), the pending marker's column segments and
# the sub-segments it reports newly set, and a chunk's bits tested in one
# hold (Pending), and the recalc graph
# walks (Cone, Mark: the plan and the edit-time segment walk against a
# brute-force closure on random fill-down runs, stopping at pre-marked
# cells), and the fill-down run registry behind them against a per-cell
# reference, the formula set's runs round trip and the registry's change
# counter included (Run), and dependency cycles: #CYCLE! exactly on a cycle, the
# same values however the sheet was built, kept across Save/Load and
# structural edits, and never read pending by the viewport pass (Cycle), and
# dsshell's transcripts: one script run on the shell's in-process server and
# over .connect prints the same bytes, and every command works locally (Shell),
# and the store's range read: ReadCells visits exactly the non-blank cells
# that grid and 1x1 reads return across regions and the overflow (ReadCells),
# a tile filled through cache.Tile keeps the extent and bytes of its
# non-blank columns and a failed load leaves it blank (Tile), and the
# translators' concurrent range readers (Concurrent), and one recalc
# evaluator: a guard that internal/core/recalc.go starts no worker goroutine
# and waits on no WaitGroup, so every chunk evaluates on the goroutine that
# commits it; then the tests that pin the dispatcher's quiet window (a
# repeated cone starts at once, a new cone, a paste burst and a load's
# revalidation wait), twenty times each, since they race the dispatcher if
# their setup is wrong.
# CI runs this as a dedicated step so visibility, latch and executor
# regressions are named, not buried in ./...
test-serve:
	$(GO) test -race -run 'Serve|Recalc|Pending|Viewport|Pipeline|Publish|Concurrent|Cone|Mark|Tile|Run|Cycle|Shell|ReadCells' -timeout 10m -v ./internal/serve/... ./internal/core/... ./internal/cache/... ./internal/depgraph/... ./internal/model/ ./cmd/dsshell/
	@if grep -nE 'sync\.WaitGroup|go func' internal/core/recalc.go; then \
		echo "the recalc executor evaluates each chunk on the goroutine that commits it"; exit 1; \
	fi
	$(GO) test -race -count=20 -run 'QuietWindow|RepeatedCone|NewCone|PendingCellsHold|MarkStops|CycleViewport' ./internal/core/

# Bench smoke: every benchmark executes once so perf code paths (including
# the file-backed pager via BenchmarkDurable*) run on every push, with
# -benchmem so the log carries each one's bytes and allocations per op.
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x -benchmem ./...

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
# smoke, the self-healing surface (scrub, vacuum, in-place recovery), the
# concurrent committers sharing fsyncs on the one commit path (Committers),
# the all-or-nothing edit batch (Pipeline), and the refused edit or write
# that leaves the store as it was (Refused: decided before the first tuple
# is written). CI runs this as a dedicated step so failure-semantics
# regressions are named, not buried in ./...
test-faults:
	$(GO) test -race -run 'Fault|Poison|Rotation|Segment|ENOSPC|BitFlip|ShortWrite|LegacySingleFileWAL|Retr|ReadOnly|Soak|Scrub|Vacuum|Recover|Maint|Backup|Restore|Archive|PITR|CommitCost|Committers|CatalogDDL|Pipeline|Refused' -timeout 10m -v ./internal/rdbms/ ./internal/core/ ./internal/model/ ./internal/workload/soak/ .

# The on-disk format alone: the compat tests over the golden fixture (every
# damaged or foreign-version structure refused by name), the check that a
# formula cell's tuple holds its value and no source text, ten seconds of each
# manifest decoder's, the cell decoder's and the WAL scanner's fuzz target
# (whose inputs are segments of tens of KB: without -fuzzminimizetime 1x the
# ten seconds go to minimizing the first interesting one) and of the record
# reader's, which must accept exactly the frames the whole-row decoder
# accepts and hand out the same datums, and four guards:
# no non-test file of internal/core or internal/model imports encoding/json —
# both persist in the heap's row codec — internal/model does not import
# strconv — a number is stored as a typed datum, never as its decimal text —
# the pager (filepager.go, wal.go) calls no os.OpenFile, os.Remove,
# os.ReadFile or filepath.Glob: its files go through the fileSystem seam, so
# an in-memory database and a file-backed one run the same code — no
# non-test file of internal/core or internal/model builds a positional map by
# scheme or a baseline (posmap.New, posmap.Schemes, NewPositionAsIs,
# NewMonotonic): every ordering is a posmap.Tracked, whose root record names
# one scheme — and the row decoders and the heap (internal/rdbms/codec.go,
# heap.go) use no atomic: no package-level counter is written per tuple on a
# read path, so readers on different cores share no cache line. The format
# must not drift back by accident.
test-format:
	$(GO) test -run 'Golden|FormatVersion|FormulaCellStoresValueOnly' -v . ./internal/model/
	$(GO) test -run '^$$' -fuzz FuzzFormulaSetDecode -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzStoreManifestDecode -fuzztime 10s ./internal/model/
	$(GO) test -run '^$$' -fuzz FuzzCellDecode -fuzztime 10s ./internal/model/
	$(GO) test -run '^$$' -fuzz FuzzWALScan -fuzztime 10s -fuzzminimizetime 1x ./internal/rdbms/
	$(GO) test -run '^$$' -fuzz FuzzNextRecord -fuzztime 10s ./internal/rdbms/
	@if $(GO) list -f '{{.ImportPath}}: {{.Imports}}' ./internal/core ./internal/model | grep encoding/json; then \
		echo "internal/core and internal/model persist in the row codec: no encoding/json"; exit 1; \
	fi
	@if $(GO) list -f '{{.Imports}}' ./internal/model | grep -w strconv; then \
		echo "internal/model stores numbers as typed datums: no strconv"; exit 1; \
	fi
	@if grep -nE 'os\.(OpenFile|Remove|ReadFile)\b|filepath\.Glob\b' internal/rdbms/filepager.go internal/rdbms/wal.go; then \
		echo "the pager opens, reads, removes and lists its files through its fileSystem seam (fsys.go)"; exit 1; \
	fi
	@if grep -rnE --include='*.go' --exclude='*_test.go' 'posmap\.(New|Schemes)\(|NewPositionAsIs|NewMonotonic' internal/core internal/model; then \
		echo "the engine keeps every ordering in posmap.Tracked; the baselines are internal/exp's"; exit 1; \
	fi
	@if grep -n 'atomic' internal/rdbms/codec.go internal/rdbms/heap.go; then \
		echo "no package-level counter is written per tuple on a read path"; exit 1; \
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

ci: lint staticcheck build loc test test-serve test-faults test-format bench bench-smoke bench-disk bench-commit soak
