GO ?= go

.PHONY: build fmt test vet race fuzz verify loc bench bench-pair profile service-smoke scenario-smoke trace-smoke cluster-smoke examples-smoke flagdoc

build:
	$(GO) build ./...

# Fails, naming the files, when any Go file is not gofmt-formatted.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The packages that own goroutines, under the race detector: the
# metrics registry (quartzd's scrape path: /metrics snapshots its
# lock-free instruments while worker goroutines write them), the
# job service (worker pool vs HTTP handlers), the cluster tier
# (dispatchers vs heartbeat monitors — TestClusterRaceStress keeps the
# requeue path hot with a permanently dead worker), and the
# experiments' cell worker pool (forEachCell under
# the Grid executor: concurrent cells writing indexed slots, progress
# and trace hooks called from every worker), plus traffic for the one
# thing concurrent cells share and write, the generator free list
# (traffic.RandPool), and the scenario runner, whose sweep cells now run
# on that pool and share only the submission's span recorder. A
# simulation itself runs on one engine on one goroutine (DESIGN.md §11),
# so sim, netsim and routing have nothing for the detector to see.
race:
	$(GO) test -race ./internal/metrics/... ./internal/service/... ./internal/cluster/... ./internal/experiments/... ./internal/traffic/... ./internal/scenario/...

# Ten seconds of the native fuzzer on each target. FuzzEngineOrder runs
# random scheduling programs on the engine and on a sort-based reference
# model (internal/sim/model_test.go): the event queue's order contract.
# FuzzDecode feeds arbitrary bytes to the scenario decoder and compiler
# (internal/scenario/fuzz_test.go): no panic, Normalize idempotent, the
# canonical form re-decodes to the same identity. FuzzEventStream feeds
# arbitrary bytes to the coordinator's reader of a worker's SSE stream
# (internal/cluster/fuzz_test.go): no panic, no terminal state without a
# state event, no over-long line accepted. FuzzFailSpec feeds arbitrary
# -fail values to quartzsim's clause parser (cmd/quartzsim/fuzz_test.go):
# whatever it accepts decodes as sim.faults or is rejected by a field
# under it. FuzzCellBlocks feeds arbitrary cell-block lists to the grid
# merge (internal/experiments/fuzz_test.go): exactly n values in cell
# order or an error, and a block's wire form round-trips with its event
# count. FuzzSubmitBody feeds arbitrary POST /jobs bodies to quartzd's
# envelope parser (internal/service/fuzz_test.go): no panic, nothing but
# whitespace after an accepted body, and an accepted request survives a
# marshal and re-parse. FuzzDecode checks the same trailing rule.
# FuzzFaultModel feeds arbitrary channel-plan JSON and a cut count to
# the exact fiber-cut count under a 20 ms deadline (fault.FiberCuts,
# internal/fault/fuzz_test.go): an error (the deadline's counts), or a
# loss and a partition probability in [0, 1], with no panic, hang or
# out-of-memory; a plan of at most 8 switches must match enumeration. FuzzECMPTables decodes arbitrary small graphs (up to 8
# switches and 16 hosts, multi-homed and host-attached hosts, parallel
# links) and dead-link sets and routes them (internal/routing/
# reference_test.go): every ECMP next-hop list equals a naive
# shortest-path oracle's and the per-host reference tables', and VLB's
# distances the oracle's. FuzzTable writes tables of hostile strings,
# integers and floats (internal/table/table_test.go): encoding/csv reads
# back every cell's CSV form, encoding/json every value, a NaN or
# infinite float is refused, and the wire form decodes to a table both
# writers print byte for byte as the original, while arbitrary wire
# input is refused or survives another round trip.
# FuzzAllocateMatchesReference decodes a small mesh or two-level tree
# with random link rates and 1-12 shortest-path or VLB flows, some
# demand-capped (internal/flowsim/fuzz_test.go): Allocate equals the
# previous water-filling kernel bit for bit, and on a mesh every dyadic
# split's fill of the pairs' CompileVLB paths equals Allocate of that
# split's flows. FuzzParseTrace feeds arbitrary text to the replay
# trace reader (internal/traffic/fuzz_test.go): every accepted time is
# in [0, 1000 s], and writing the events back and reading them again
# gives the same events to the picosecond. A failure leaves its
# input under the package's testdata/fuzz/ — commit it with the fix.
# Minimisation is capped in iterations: at the default 60 s per input
# the whole smoke goes to shrinking the first few finds.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzEngineOrder$$' -fuzztime 10s -fuzzminimizetime 200x ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s -fuzzminimizetime 200x ./internal/scenario
	$(GO) test -run '^$$' -fuzz '^FuzzEventStream$$' -fuzztime 10s -fuzzminimizetime 200x ./internal/cluster
	$(GO) test -run '^$$' -fuzz '^FuzzFailSpec$$' -fuzztime 10s -fuzzminimizetime 200x ./cmd/quartzsim
	$(GO) test -run '^$$' -fuzz '^FuzzCellBlocks$$' -fuzztime 10s -fuzzminimizetime 200x ./internal/experiments
	$(GO) test -run '^$$' -fuzz '^FuzzSubmitBody$$' -fuzztime 10s -fuzzminimizetime 200x ./internal/service
	$(GO) test -run '^$$' -fuzz '^FuzzFaultModel$$' -fuzztime 10s -fuzzminimizetime 200x ./internal/fault
	$(GO) test -run '^$$' -fuzz '^FuzzECMPTables$$' -fuzztime 10s -fuzzminimizetime 200x ./internal/routing
	$(GO) test -run '^$$' -fuzz '^FuzzTable$$' -fuzztime 10s -fuzzminimizetime 200x ./internal/table
	$(GO) test -run '^$$' -fuzz '^FuzzAllocateMatchesReference$$' -fuzztime 10s -fuzzminimizetime 200x ./internal/flowsim
	$(GO) test -run '^$$' -fuzz '^FuzzParseTrace$$' -fuzztime 10s -fuzzminimizetime 200x ./internal/traffic

# Tier-1 verify recipe (see ROADMAP.md): build + gofmt + vet + full
# tests + race pass on the goroutine-owning packages + the eleven fuzz
# smokes.
verify: build fmt vet test race fuzz

# Non-test Go lines outside bench/, in total and per package: the size
# figure ROADMAP.md tracks from PR to PR.
loc:
	bash scripts/loc.sh

# One iteration of every kernel micro-benchmark (sim, netsim, flowsim,
# fault, metrics), without re-running the tests. The repository's
# performance record is bench/ (BENCHMARK.json; bench-pair, profile).
bench:
	$(GO) test -run '^$$' -bench=. -benchmem -benchtime=1x ./...

# Paired runs of the repository's benchmark (BENCHMARK.json) on two
# revisions, alternating, with a fresh seed per pair: how a performance
# claim is checked on a small shared box. Prints each side's median and
# quartiles per end-to-end metric, the pairs won, a verdict against
# the metric's bound, and whether the outputs digests matched.
#   make bench-pair BASE=HEAD~1 WORKLOAD=paper_packet PAIRS=10
BASE ?= HEAD~1
WORKLOAD ?= paper_packet
PAIRS ?= 10
bench-pair:
	bash scripts/bench_pair.sh $(BASE) $(WORKLOAD) $(PAIRS)

# Profile one or more experiments at the repository benchmark's
# parameters (bench/ runs seed 2014, 5000 trials, 4 tasks, 200 RPCs on
# one core) and print the top of their merged CPU and allocation
# profiles; RUN="fig17 fig18 fig20" is one paper_packet pass. Each
# experiment runs five times and pprof merges the lot: one run of about
# a second is about a hundred samples, and a function's share read 26 %
# in one such profile and 39 % in the next. Profile before editing: the
# analytic path was once diagnosed from its malloc count alone, and the
# time turned out to be in fig6, which barely allocates. The binary and
# the numbered per-run profiles stay in $(PROFDIR) for
# `go tool pprof -list`.
#   make profile RUN=fig6
RUN ?= fig6
PROFDIR ?= $(or $(TMPDIR),/tmp)
profile:
	$(GO) build -o $(PROFDIR)/quartzsim.profile ./cmd/quartzsim
	for r in $(RUN); do for i in 1 2 3 4 5; do \
		GOMAXPROCS=1 $(PROFDIR)/quartzsim.profile -run $$r -seed 2014 -trials 5000 -tasks 4 -rpcs 200 \
			-cpuprofile $(PROFDIR)/$$r.$$i.cpu.pprof -memprofile $(PROFDIR)/$$r.$$i.mem.pprof >/dev/null || exit 1; \
	done; done
	$(GO) tool pprof -top -nodecount=15 $(PROFDIR)/quartzsim.profile $(RUN:%=$(PROFDIR)/%.[1-5].cpu.pprof)
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount=15 $(PROFDIR)/quartzsim.profile $(RUN:%=$(PROFDIR)/%.[1-5].mem.pprof)

# End-to-end check of the quartzd job service: submit, poll, fetch,
# cache hit on resubmit (envelope and raw-scenario forms), graceful
# SIGTERM drain. CI runs this as the service-smoke job.
service-smoke:
	bash scripts/service_smoke.sh

# Validate every shipped scenario document (examples/scenarios/) with
# quartzsim -scenario -dry-run. CI runs this as the scenario-smoke step.
scenario-smoke:
	bash scripts/scenario_smoke.sh

# Run every examples/*/ program (exit 0, non-empty stdout, under a
# timeout): the programs a stranger copies first must work, not just
# compile. CI runs this as the examples-smoke step.
examples-smoke:
	bash scripts/examples_smoke.sh

# End-to-end check of distributed quartzd: a coordinator and two
# workers on loopback, a table8 sweep fanned out and merged
# byte-identically to a single-process run, SSE progress events, a
# coordinator cache hit on resubmission, clean SIGTERM drains. CI runs
# this as the cluster-smoke step.
cluster-smoke:
	bash scripts/cluster_smoke.sh

# End-to-end check of execution tracing and of quartzsim's side-band
# sinks: quartzsim traces (flags, a -scenario file and -run's cell
# spans) validate under cmd/tracecheck (schema, per-track timestamp order),
# and a quartzd job round-trips its X-Quartz-Trace header through
# GET /jobs/{id}/trace. CI runs this as the trace-smoke step.
trace-smoke:
	bash scripts/trace_smoke.sh

# Regenerate the quartzsim flag reference embedded in EXPERIMENTS.md
# (print it; paste under "## quartzsim flag reference", and its closing
# flags-and-fields table into SCENARIOS.md too —
# TestFlagDocEmbeddedInDocs compares both).
flagdoc:
	$(GO) run ./cmd/quartzsim -flagdoc
