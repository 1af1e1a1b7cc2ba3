# Developer entry points. Tier-1 (`go test ./...`) runs every contract a test
# binary can, each program's smoke rows included (TestSmokes, stdout pinned
# under cmd/*/testdata/smoke). `make ci` adds what it cannot: vet with gofmt,
# the callers and fields rules, the race detector, golden drift, fuzzing,
# coverage, the whole catalog at the quick size, the bench module, the
# allocation budgets, the x86-64-v3 build and the arm64 cross-build. Timing lives in bench/ alone.

GO ?= go
FUZZTIME ?= 5s

.PHONY: all build test race vet callers loc knobs bench-gate golden golden-diff fuzz-smoke cover analyze-smoke bench-module amd64-v3 cross ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# vet also holds the tree to gofmt: any file `gofmt -l` names fails the target.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l cmd internal bench *.go); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# Every declaration has a caller: fails on a package-level declaration or
# method that neither a cmd/* program nor anything bench/*.go references
# reaches and that testdata/callers_allow.txt does not list with a reason —
# and on a listed name that is reachable or gone (callers_test.go). Every
# field has a reader: fails on a struct field that no non-test code and no
# bench/*.go file reads (a store is not a read) and that
# testdata/fields_allow.txt does not list with its reader — and on a listed
# field that is read or gone (fields_test.go). The serving stack keeps its
# layers: fails on a forbidden dependency among netblock, consensus, fabric
# and gateway, or on one from outside them (layering_test.go).
callers:
	$(GO) test -run 'TestDeclarationsHaveCallers|TestFieldsHaveReaders|TestServingStackLayering' -count=1 .

# Non-test Go lines outside bench/, per package directory and in total: the
# number a simplification PR reports before and after (ROADMAP aim 2).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -print0 \
		| xargs -0 wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | sort -k2

# Independently settable values, per package directory and in total: the
# number an options PR reports before and after (ROADMAP aim 2). An option is
# an exported field of an exported struct type named Config, Options, Plan,
# StudySpec or Lending (or ending in Config or Options) in non-test Go outside
# bench/, or a flag defined there through the flag package or a *flag.FlagSet
# (it counts in the package that defines it). TestKnobBudget (knobs_test.go)
# counts them and fails when a directory's count differs from its line in
# testdata/knobs.txt; it also runs in `go test ./...`.
knobs:
	$(GO) test -run TestKnobBudget -count=1 -v .

# Race-detector run. -short trims the slowest property tests where they
# opt in; every fleet used by the tests is already small. The invariant
# suites (runtime checker, metamorphic relations) and every TestSmokes row of
# the programs ride along here.
race:
	$(GO) test -race -short ./...

# Allocation gate: the tests that hold each hot path's allocations flat in
# the disks, records or IOs it handles, under an absolute ceiling — a warm
# engine run at 1/2/4 workers, RunControlled under noop and reactive, the
# observe pass, sketch ingest, replay ingest, a loopback fabric study, a
# dataset fingerprint (the same count at ten times the records) and a
# fresh-seed stream acquisition (none, with the live heap flat) — and the
# shard-result path's byte budget (TestShardResultPathBytes: a bench-shaped
# fabric study with the collector off allocates at most 3.3x its dataset).
# Allocation counts are deterministic, so no baseline file is needed: each
# budget and the count it was sized from sit in the test's comment. The tests
# skip under the race detector (sync.Pool drops items at random there), or,
# for TestShardResultPathBytes, hold only a looser 4.3x bound, so `make race`
# cannot stand in for this target.
bench-gate:
	$(GO) test -count=1 -run 'SteadyStateAllocs|TestObserveBatchMemoryIsFleetBounded|TestFabricStudyAllocs|TestShardResultPathBytes' ./...

# The latency kernel, the draw mirrors and the engine built for x86-64-v3,
# where the compiler may use AVX2 and FMA anywhere: the exp kernel's math.Exp
# fallback and the Go code around it must still equal math.Exp bit for bit,
# and every engine record its per-IO reference. Needs an amd64 host with AVX2
# and FMA.
amd64-v3:
	GOAMD64=v3 $(GO) test -count=1 ./internal/latency ./internal/xrand ./internal/ebs

# The tree built and vetted for arm64: the exp kernel is amd64 assembly, and
# this catches a declaration the other architectures' stub lacks. Offline:
# cross-compiling the standard library needs no download.
cross:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/latency ./internal/ebs

# Every package whose golden fixtures an -update flag rewrites, the programs'
# smoke stdout under cmd/*/testdata/smoke included.
GOLDEN_PKGS = ./internal/core ./internal/scenario ./internal/gateway ./internal/chaos \
	./internal/report ./internal/control/ctleval ./cmd/ebssim ./cmd/ebsgate

# golden-diff fails when any fixture in GOLDEN_PKGS drifts from what the code
# produces. After an intentional change, regenerate with `make golden` and
# commit the diff alongside the change that caused it.
golden-diff:
	$(GO) test $(GOLDEN_PKGS) -run 'Golden|TestSmokes' -count=1

golden:
	$(GO) test $(GOLDEN_PKGS) -run 'Golden|TestSmokes' -count=1 -update

# Short randomized runs of all 16 committed fuzz targets (seeds under each
# package's testdata/fuzz; the netblock, wire and fabric decoders, the
# diting merge and the trace batch seed theirs in code).
# `go test -fuzz` takes one target per invocation, so each gets its own.
# Each run minimizes a new interesting input for at most 200ms (the default
# is 60s, more than the whole budget), so the budget goes to fuzzing; a
# crasher is still saved, only minimized for less time.
fuzz-smoke:
	$(GO) test ./internal/trace -fuzz FuzzReadTraceCSV -fuzztime $(FUZZTIME) -fuzzminimizetime 200ms
	$(GO) test ./internal/trace -fuzz FuzzReadTraceJSONL -fuzztime $(FUZZTIME) -fuzzminimizetime 200ms
	$(GO) test ./internal/trace -fuzz FuzzBatch -fuzztime $(FUZZTIME) -fuzzminimizetime 200ms
	$(GO) test ./internal/diting -fuzz FuzzMergeRuns -fuzztime $(FUZZTIME) -fuzzminimizetime 200ms
	$(GO) test ./internal/predict -fuzz FuzzEvaluatePredictors -fuzztime $(FUZZTIME) -fuzzminimizetime 200ms
	$(GO) test ./internal/sketch -fuzz FuzzSpaceSavingAddMerge -fuzztime $(FUZZTIME) -fuzzminimizetime 200ms
	$(GO) test ./internal/sketch -fuzz FuzzLogQuantileMerge -fuzztime $(FUZZTIME) -fuzzminimizetime 200ms
	$(GO) test ./internal/sketch -fuzz FuzzSetCodec -fuzztime $(FUZZTIME) -fuzzminimizetime 200ms
	$(GO) test ./internal/wire -fuzz FuzzReader -fuzztime $(FUZZTIME) -fuzzminimizetime 200ms
	$(GO) test ./internal/fabric -fuzz FuzzDecodeResult -fuzztime $(FUZZTIME) -fuzzminimizetime 200ms
	$(GO) test ./internal/fabric -fuzz FuzzResultPayload -fuzztime $(FUZZTIME) -fuzzminimizetime 200ms
	$(GO) test ./internal/consensus -fuzz FuzzMessageCodec -fuzztime $(FUZZTIME) -fuzzminimizetime 200ms
	$(GO) test ./internal/gateway -fuzz FuzzGatewayCodec -fuzztime $(FUZZTIME) -fuzzminimizetime 200ms
	$(GO) test ./internal/scenario -fuzz FuzzReplayIngest -fuzztime $(FUZZTIME) -fuzzminimizetime 200ms
	$(GO) test ./internal/netblock -fuzz FuzzReadRequest -fuzztime $(FUZZTIME) -fuzzminimizetime 200ms
	$(GO) test ./internal/netblock -fuzz FuzzReadResponse -fuzztime $(FUZZTIME) -fuzzminimizetime 200ms

# Coverage over the fault-injection surface: the chaos layer itself, every
# package that acts on its schedules (engine, the controller that evacuates
# crashed BlockServers, invariants), and the RPC substrate and fabric that
# the tests' wire-fault proxy (internal/netblock/netblocktest) shakes.
cover:
	$(GO) test -cover ./internal/chaos ./internal/netblock ./internal/fabric ./internal/ebs \
		./internal/control ./internal/invariant

# Reproduction gate: the whole experiment catalog at the quick fleet size and
# the catalog's own defaults — the only run of every figure family at the
# options the report uses (the goldens pin them at small options). Stdout is
# the markdown report, and it must equal cmd/analyze/testdata/report-small.md
# byte for byte; after an intentional change to a figure, regenerate that
# file with the same command and commit it alongside the change. The second
# run checks the laws of f3 and f5 at analyze's default medium scale, where a
# throttle-lending round-off once broke a law that every small fleet kept:
# it must exit 0 (analyze exits non-zero on a broken law), and its stdout is
# not pinned. f4 also carries laws but takes ~47 s at medium, so it is left
# out.
analyze-smoke:
	@out=$$(mktemp); $(GO) run ./cmd/analyze -scale small -run all > $$out \
		&& cmp $$out cmd/analyze/testdata/report-small.md; st=$$?; rm -f $$out; exit $$st
	$(GO) run ./cmd/analyze -scale medium -run f3,f5 > /dev/null

# bench/ is a nested module (`ebslab/bench`, replace ebslab => ../), so
# `go test ./...` from the root never compiles it: this is the gate that
# catches an API change in the root module breaking the benchmark. Its suite
# holds BENCHMARK.json to the metric catalog, smokes every workload at 1/10
# size against bench/testdata/fingerprints.json, and checks the span tree.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

ci: vet callers race golden-diff fuzz-smoke cover analyze-smoke bench-module bench-gate amd64-v3 cross
