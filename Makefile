# Developer entry points. `make ci` is the gate: vet (with gofmt), the
# every-declaration-has-a-caller test, the full test suite
# under the race detector on a short-window fleet (the tests build their own
# small fleets, so the race run stays fast — and it includes the netblock
# client-vs-server stress test with wire faults enabled), the golden-fixture
# drift check, a short randomized run of every fuzz target, coverage over the
# fault-injection packages, a seeded chaos smoke run with the invariant
# checker, the whole reproduction catalog at the quick fleet size, and the
# allocation budgets (run without the race detector, under which they skip),
# and the latency, draw and engine suites built for x86-64-v3.
# Timing lives in one place, the bench/ module.

GO ?= go
FUZZTIME ?= 5s

.PHONY: all build test race vet callers loc knobs bench-gate golden golden-diff fuzz-smoke cover chaos-smoke sketch-accuracy-smoke dist-smoke dist-ha-smoke consensus-race gateway-smoke control-smoke scenario-smoke analyze-smoke bench-module amd64-v3 ci

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
# and on a listed name that is reachable or gone (callers_test.go).
callers:
	$(GO) test -run TestDeclarationsHaveCallers -count=1 .

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
# counts them and fails when a directory exceeds its line in
# testdata/knobs.txt; it also runs in `go test ./...`.
knobs:
	$(GO) test -run TestKnobBudget -count=1 -v .

# Race-detector run. -short trims the slowest property tests where they
# opt in; every fleet used by the tests is already small. The invariant
# suites (runtime checker, metamorphic relations) ride along here.
race:
	$(GO) test -race -short ./...

# Allocation gate: the tests that hold each hot path's allocations flat in
# the disks, records or IOs it handles, under an absolute ceiling — a warm
# engine run at 1/2/4 workers, RunControlled under noop and reactive, the
# observe pass, sketch ingest, replay ingest and a loopback fabric study.
# Allocation counts are deterministic, so no baseline file is needed: each
# budget and the count it was sized from sit in the test's comment. The tests
# skip under the race detector (sync.Pool drops items at random there), so
# `make race` cannot stand in for this target.
bench-gate:
	$(GO) test -count=1 -run 'SteadyStateAllocs|TestObserveBatchMemoryIsFleetBounded|TestFabricStudyAllocs' ./...

# The latency kernel, the draw mirrors and the engine built for x86-64-v3,
# where the compiler may use AVX2 and FMA anywhere: the four-lane exp must
# still equal math.Exp bit for bit and every engine record its per-IO
# reference. Needs an amd64 host with AVX2 and FMA.
amd64-v3:
	GOAMD64=v3 $(GO) test -count=1 ./internal/latency ./internal/xrand ./internal/ebs

# golden-diff fails when any figure/ablation statistic or the engine
# fingerprint drifts from the fixtures in internal/core/testdata/golden.
# After an intentional change, regenerate with `make golden` and commit the
# diff alongside the change that caused it.
golden-diff:
	$(GO) test ./internal/core -run 'TestGolden' -count=1
	$(GO) test ./internal/scenario -run 'TestGolden' -count=1

golden:
	$(GO) test ./internal/core -run 'TestGolden' -count=1 -update
	$(GO) test ./internal/scenario -run 'TestGolden' -count=1 -update

# Short randomized runs of the committed fuzz targets (seeds under each
# package's testdata/fuzz; the netblock, wire and fabric decoders and the
# diting merge seed theirs in code).
# `go test -fuzz` takes one target per invocation, so each gets its own.
fuzz-smoke:
	$(GO) test ./internal/trace -fuzz FuzzReadTraceCSV -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -fuzz FuzzReadTraceJSONL -fuzztime $(FUZZTIME)
	$(GO) test ./internal/diting -fuzz FuzzMergeRuns -fuzztime $(FUZZTIME)
	$(GO) test ./internal/predict -fuzz FuzzEvaluatePredictors -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sketch -fuzz FuzzSpaceSavingAddMerge -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sketch -fuzz FuzzLogQuantileMerge -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sketch -fuzz FuzzSetCodec -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire -fuzz FuzzReader -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fabric -fuzz FuzzDecodeResult -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fabric -fuzz FuzzDecodeCommand -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fabric -fuzz FuzzResultPayload -fuzztime $(FUZZTIME)
	$(GO) test ./internal/consensus -fuzz FuzzMessageCodec -fuzztime $(FUZZTIME)
	$(GO) test ./internal/gateway -fuzz FuzzGatewayCodec -fuzztime $(FUZZTIME)
	$(GO) test ./internal/scenario -fuzz FuzzReplayIngest -fuzztime $(FUZZTIME)
	$(GO) test ./internal/netblock -fuzz FuzzReadRequest -fuzztime $(FUZZTIME)
	$(GO) test ./internal/netblock -fuzz FuzzReadResponse -fuzztime $(FUZZTIME)

# Coverage over the fault-injection surface: the chaos layer itself plus
# every package it reaches into (RPC substrate, the fabric that recovers from
# its wire faults, engine, balancer, throttle, invariants).
cover:
	$(GO) test -cover ./internal/chaos ./internal/netblock ./internal/fabric ./internal/ebs \
		./internal/balancer ./internal/throttle ./internal/invariant

# Short seeded chaos run with the invariant checker on: a recoverable fault
# schedule must pass every conservation law end to end.
chaos-smoke:
	$(GO) run ./cmd/ebssim -seed 7 -dur 20 -nodes 4 -max-vds 24 -chaos -check

# Exact-vs-streamed accuracy gate: one unthinned run scored both ways; every
# streamed metric must sit inside its documented error bound (top-K overlap
# >= 0.9, quantile relative error <= 2%).
sketch-accuracy-smoke:
	$(GO) test ./internal/ebs -run 'TestSketchAccuracySmoke' -count=1 -v

# Distributed-fabric gate: a coordinator plus two in-process loopback
# workers run the fleet in shards over the real netblock wire path, then
# the binary re-runs the same study single-process and fails unless the
# merged dataset and sketch fingerprints are byte-identical.
dist-smoke:
	$(GO) run ./cmd/ebssim -seed 7 -dur 15 -nodes 4 -max-vds 24 -dist 2 -shards 5 -check -stream

# High-availability variant: the coordinator is a 3-replica consensus group
# and the chaos plan kills the acting leader mid-run. A successor must be
# elected, the workers must fail over through redirects, and the merged
# dataset must STILL be byte-identical to the single-process run.
dist-ha-smoke:
	$(GO) run ./cmd/ebssim -seed 7 -dur 15 -nodes 4 -max-vds 24 -dist 2 -shards 5 -replicas 3 -leader-kill 1 -check

# Focused race-detector pass over the consensus core and the replicated
# fabric (leader election, log replication, kill-driven failover) without
# -short, so the full leader-kill golden scenario runs under the detector.
consensus-race:
	$(GO) test -race -count=1 ./internal/consensus ./internal/fabric

# Serving-plane gate: the ebsgate binary serves a gateway on loopback TCP,
# a protocol client submits one study through the full wire path and streams
# sketch snapshots while it runs, and the binary fails unless the served
# dataset and sketch fingerprints (and, for a controlled study, the decision
# log's) are byte-identical to a direct single-process run of the same spec —
# plain, scenario-shaped, under a control policy, and on a 3-replica fabric
# whose acting leader is killed mid-study (the selftest also fails unless the
# kill fired).
gateway-smoke:
	$(GO) run ./cmd/ebsgate -selftest -seed 7 -dur 4 -nodes 2 -users 4 -max-vds 12
	$(GO) run ./cmd/ebsgate -selftest -seed 7 -dur 4 -nodes 2 -users 4 -max-vds 12 -scenario bufferbloat
	$(GO) run ./cmd/ebsgate -selftest -seed 7 -dur 8 -nodes 2 -users 4 -max-vds 12 -control reactive
	$(GO) run ./cmd/ebsgate -selftest -seed 7 -dur 4 -nodes 2 -users 4 -max-vds 12 -fabric-replicas 3 -fabric-workers 2 -shards 3 -leader-kill 1

# Mitigation control-plane gate: the policy bake-off golden fixture (the
# predictive policy must beat reactive on imbalance under the pinned chaos
# plan, and noop must answer byte-identically to the uncontrolled run), the
# metamorphic worker-count invariance of the decision log, the engine's
# generate-only observe pass held to the row fold it replaced, and two seeded
# predict->act CLI runs with the invariant suite on — a storm plan and a quiet
# one — so the control/observation law (the actuated pass's metric rows
# reproduce the observation the plan was built from) runs on both.
control-smoke:
	$(GO) test ./internal/control/... -count=1
	$(GO) test ./internal/ebs -run 'Observe|Controlled' -count=1
	$(GO) run ./cmd/ebssim -seed 7 -dur 24 -nodes 4 -max-vds 24 -control predictive -chaos -storms 4 -check
	$(GO) run ./cmd/ebssim -seed 7 -dur 24 -nodes 4 -max-vds 24 -control oracle -check

# Scenario-library gate: the scenario package suite (golden fixtures,
# worker-count determinism oracle, native replay round-trip, replay fuzz
# seeds), then the full scenario matrix end to end through the CLI with the
# invariant checker on — bufferbloat plain, batchburst under a chaos plan,
# elastic under the predictive control policy, both committed foreign
# traces (MSR and tianchi schemas) through the replay scenario, and the
# tianchi sample again as a spreadsheet would save it: CRLF line ends under a
# header row, and an `ebssim -out` export replayed under the same study flags,
# which must simulate the same number of IOs.
scenario-smoke:
	$(GO) test ./internal/scenario -count=1
	$(GO) run ./cmd/ebssim -seed 7 -dur 12 -nodes 4 -max-vds 24 -scenario bufferbloat,period=8,duty=0.5 -check
	$(GO) run ./cmd/ebssim -seed 7 -dur 12 -nodes 4 -max-vds 24 -scenario batchburst,wave=6,width=2 -chaos -check
	$(GO) run ./cmd/ebssim -seed 7 -dur 12 -nodes 4 -max-vds 24 -scenario elastic,hi=2,step=3 -control predictive -check
	$(GO) run ./cmd/ebssim -seed 7 -dur 12 -nodes 4 -max-vds 24 -scenario replay,path=internal/scenario/testdata/msr_sample.csv -check
	$(GO) run ./cmd/ebssim -seed 7 -dur 12 -nodes 4 -max-vds 24 -scenario replay,path=internal/scenario/testdata/tianchi_sample.csv -check -stream
	@tmp=$$(mktemp .scenario-smoke.XXXXXX) && { printf 'device_id,opcode,offset,length,timestamp\r\n'; sed 's/$$/\r/' internal/scenario/testdata/tianchi_sample.csv; } > $$tmp \
		&& echo "ebssim -scenario replay,path=<tianchi sample as CRLF with a header row> -check" \
		&& $(GO) run ./cmd/ebssim -seed 7 -dur 12 -nodes 4 -max-vds 24 -scenario replay,path=$$tmp -check; rc=$$?; rm -f $$tmp; exit $$rc
	@tmp=$$(mktemp -d .scenario-smoke.XXXXXX) && echo "ebssim -out <dir>, then -scenario replay,path=<dir>/trace.csv -check" \
		&& $(GO) run ./cmd/ebssim -seed 7 -dur 12 -nodes 4 -max-vds 24 -out $$tmp -check > $$tmp/export.out \
		&& $(GO) run ./cmd/ebssim -seed 7 -dur 12 -nodes 4 -max-vds 24 -scenario replay,path=$$tmp/trace.csv -check > $$tmp/replay.out \
		&& cat $$tmp/replay.out && native=$$(head -1 $$tmp/export.out) && replayed=$$(head -1 $$tmp/replay.out) \
		&& { [ "$$native" = "$$replayed" ] || { echo "export: $$native; replay: $$replayed"; false; }; }; rc=$$?; rm -rf $$tmp; exit $$rc

# Reproduction gate: the whole experiment catalog at the quick fleet size and
# the catalog's own defaults — the only run of every figure family at the
# options the report uses (the goldens pin them at small options). Stdout is
# the markdown report; only a failing exit matters here.
analyze-smoke:
	$(GO) run ./cmd/analyze -scale small -run all > /dev/null

# bench/ is a nested module (`ebslab/bench`, replace ebslab => ../), so
# `go test ./...` from the root never compiles it: this is the gate that
# catches an API change in the root module breaking the benchmark. Its suite
# holds BENCHMARK.json to the metric catalog, smokes every workload at 1/10
# size against bench/testdata/fingerprints.json, and checks the span tree.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

ci: vet callers race golden-diff fuzz-smoke cover chaos-smoke sketch-accuracy-smoke dist-smoke dist-ha-smoke consensus-race gateway-smoke control-smoke scenario-smoke analyze-smoke bench-module bench-gate amd64-v3
