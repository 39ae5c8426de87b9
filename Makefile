GO ?= go

.PHONY: ci build vet lint test test-short race layerbench-check fuzz bench bench-smoke serve-smoke replay-smoke fleet-smoke reoutline-smoke

# ci is the gate every change must pass: compile everything, lint
# everything (vet always, staticcheck when installed), run the full test
# suite, run the short suite under the race detector (the build pipeline
# fans out per-method work since -j), run each bench-smoke benchmark
# once, smoke the serving daemon, replay the fixed-seed workload with
# its asserted served/rejected counts, smoke the multi-daemon fleet
# against a shared calibrocached, smoke the post-hoc re-outlining
# pipeline, and compile the layer benchmark module against the current
# API.
ci: build lint test race layerbench-check bench-smoke serve-smoke replay-smoke fleet-smoke reoutline-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs go vet plus staticcheck (pinned in scripts/lint.sh) when the
# staticcheck binary is on PATH; hermetic builders without it still get
# the vet pass.
lint:
	GO=$(GO) sh scripts/lint.sh

test:
	$(GO) test ./...

# test-short skips the full-scale soak tests.
test-short:
	$(GO) test -short ./...

# race runs the short suite under the race detector; the parallel
# per-method stages (compile, analysis, outline, verify) must stay
# clean, as must the fleet layer's concurrent surfaces (remote-tier
# breaker, cacheserver long-poll waiters, cross-daemon single-flight).
race:
	$(GO) test -race -short ./...

# layerbench-check vets and unit-tests the layer benchmark. layerbench/ is
# a separate module, so `go build ./...` at the root never compiles it and
# an API change could break the benchmark silently. vet type-checks
# without writing a binary into the tree.
layerbench-check:
	cd layerbench && $(GO) vet ./... && $(GO) test ./...

# fuzz gives the serialization, lint, call-graph, and remote-cache wire
# fuzzers a short budget each. FuzzRemoteFrame attacks the client half of
# the cache protocol (hostile server responses), FuzzRemoteRequest the
# server half (hostile client requests). FuzzCallGraph also debloats every
# image it parses (refusal, or a valid output that debloats again to the
# same bytes), and FuzzLift does the same for the re-outliner. Both also
# require the analysis an accepted output's verification reused from its
# input to equal a fresh analysis of the output's re-parsed bytes.
# FuzzUnmarshalApp attacks the dex decoder and verifier every dex-payload
# build job runs, and requires each accepted container to round-trip.
# FuzzDecode and FuzzPatchRel attack the A64 decoder and branch patcher.
# Every pattern is anchored: -fuzz must match exactly one fuzzer, and a
# bare FuzzUnmarshal also matches FuzzUnmarshalLint. Minimizing a new
# input is bounded to 100 execs (the default is 60 s): the image seeds are
# large, and an unbounded first minimization used up the whole 20 s budget
# of the call-graph and lift fuzzers.
FUZZ = -fuzztime 20s -fuzzminimizetime 100x
fuzz:
	$(GO) test ./internal/a64 -run xxx -fuzz '^FuzzDecode$$' $(FUZZ)
	$(GO) test ./internal/a64 -run xxx -fuzz '^FuzzPatchRel$$' $(FUZZ)
	$(GO) test ./internal/dex -run xxx -fuzz '^FuzzUnmarshalApp$$' $(FUZZ)
	$(GO) test ./internal/oat -run xxx -fuzz '^FuzzUnmarshal$$' $(FUZZ)
	$(GO) test ./internal/oat -run xxx -fuzz '^FuzzUnmarshalLint$$' $(FUZZ)
	$(GO) test ./internal/cache -run xxx -fuzz '^FuzzCacheEntry$$' $(FUZZ)
	$(GO) test ./internal/cache -run xxx -fuzz '^FuzzRemoteFrame$$' $(FUZZ)
	$(GO) test ./internal/cache/cacheserver -run xxx -fuzz '^FuzzRemoteRequest$$' $(FUZZ)
	$(GO) test ./internal/analysis -run xxx -fuzz '^FuzzCallGraph$$' $(FUZZ)
	$(GO) test ./internal/reoutline -run xxx -fuzz '^FuzzLift$$' $(FUZZ)

# bench regenerates the paper's tables and figures.
bench:
	$(GO) test -bench=. -benchmem .

# bench-smoke is the ci guard for the benchmark functions below: one
# iteration each at the -short scale, proving they still run — plus the
# -j scaling assertion (BenchmarkCompileScalingSmoke), which fails the
# build if a j=8 compile stops beating j=1 by at least 1.5x. The
# assertion self-skips on hosts with fewer than 4 CPUs, where the ladder
# is legitimately flat. The ablation sweeps, Table 6 and the two figure
# benchmarks run once each, so the paper-table harness they share with
# TestPaperTables keeps running. The suffix-tree construction benchmark
# runs once per size, the image-only analysis, debloat and post-hoc
# re-outlining benchmarks once per ladder app, and the cache-key,
# image-marshal, dex-load, repeat detection and selection
# (BenchmarkDetect) and IR-optimizer (BenchmarkOptimize) kernels once
# each, so they keep compiling. Archived
# measurements come from layerbench (`bash layerbench/run.sh`), not from
# these runs.
bench-smoke:
	$(GO) test -short -run xxx -bench 'BenchmarkCompileWorkers|BenchmarkCompileScalingSmoke|BenchmarkBuildTraced|BenchmarkBuildColdVsWarm' -benchtime 1x . >/dev/null
	$(GO) test -short -run xxx -bench 'Ablation|Table6_|Figure' -benchtime 1x . >/dev/null
	$(GO) test -run xxx -bench BenchmarkBuild -benchtime 1x ./internal/suffixtree >/dev/null
	$(GO) test -short -run xxx -bench 'BenchmarkAnalyze|BenchmarkDebloat' -benchtime 1x -benchmem ./internal/analysis >/dev/null
	$(GO) test -run xxx -bench BenchmarkCacheKey -benchtime 1x -benchmem ./internal/codegen >/dev/null
	$(GO) test -run xxx -bench BenchmarkMarshal -benchtime 1x -benchmem ./internal/oat >/dev/null
	$(GO) test -run xxx -bench BenchmarkLoad -benchtime 1x -benchmem ./internal/workload >/dev/null
	$(GO) test -short -run xxx -bench BenchmarkDetect -benchtime 1x -benchmem ./internal/outline >/dev/null
	$(GO) test -short -run xxx -bench BenchmarkOptimize -benchtime 1x -benchmem ./internal/hgraph >/dev/null
	$(GO) test -short -run xxx -bench BenchmarkReoutline -benchtime 1x ./internal/reoutline >/dev/null

# serve-smoke boots calibrod on a random port, drives one job end to end
# via calibroctl, checks /healthz and /metrics, and requires a clean
# SIGTERM drain.
serve-smoke:
	GO=$(GO) sh scripts/serve_smoke.sh

# replay-smoke replays the fixed-seed calibroload workload against a
# fresh daemon and asserts the exact served/413 split the seed dictates,
# plus the prom exposition, a per-job trace, and the JSON event log.
replay-smoke:
	GO=$(GO) sh scripts/replay_smoke.sh

# fleet-smoke boots one calibrocached and two calibrod daemons sharing it
# as a remote cache tier, replays the fixed-seed workload twice (single
# daemon, then routed across the fleet), and asserts the identical
# served/413 split plus actual cross-daemon artifact hits.
fleet-smoke:
	GO=$(GO) sh scripts/fleet_smoke.sh

# reoutline-smoke builds the fixed-seed app without link-time outlining,
# re-outlines it post hoc through the calibro CLI, and asserts savings,
# the gap to the link-time build, lint-clean output, provenance in
# oatdump, and the -debloat composition.
reoutline-smoke:
	GO=$(GO) sh scripts/reoutline_smoke.sh
