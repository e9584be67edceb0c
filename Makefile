# Build, test and experiment targets for the vsp repository.

GO ?= go
BIN := bin

.PHONY: all build test vet bench bench-json bench-smoke race soak chaos-soak chaos-bench cover fuzz figures results examples failover-demo sharded-demo load-demo bench-load clean

all: build vet test

build:
	$(GO) build ./...
	mkdir -p $(BIN)
	$(GO) build -o $(BIN)/ ./cmd/...

vet:
	$(GO) vet ./...

# The layer boundary and the standing rules (one shell, one solver, one bar)
# are layers_test.go, part of `go test ./...`.
test: vet
	$(GO) test ./...

race:
	$(GO) test -race ./...

soak:
	$(GO) test -tags soak -run TestSoak -v .

# Invariant-checking chaos soak: a paced trace through a 3-shard gateway
# under a seed-deterministic fault schedule (partitions, flapping, gray
# latency, 5xx bursts), asserting exactly-once commits, per-shard audit,
# merged-plan validity, and that no breaker wedges open (see
# internal/gateway/chaos_soak_test.go).
chaos-soak:
	$(GO) test -race -tags chaossoak -run TestChaosSoak -v ./internal/gateway

# Gray-failure benchmark: one shard 2s slow, measured through vspload's
# harness with breakers off and on; records both runs into
# BENCH_load.json (p99 with breakers must be >=5x lower).
chaos-bench:
	CHAOS_BENCH_OUT=$(CURDIR)/BENCH_load.json $(GO) test -tags chaossoak \
		-run TestGrayFailureBreakerBenefit -v -timeout 20m ./internal/gateway

# Short fuzz passes over the parsers that face untrusted bytes: the WAL
# decoder (crash/corruption trichotomy), the schedule decoder and the
# reservation intake behind it, vspsim's -schedule file (the simulator, the
# repairer and billing behind it), the door every snapshot payload takes,
# and a follower's replication payload applier (a refused record changes
# nothing, an applied one leaves a state promotion accepts). The snapshot
# door and vspsim's file start from whole schedules,
# which the fuzzer would otherwise spend the whole pass minimizing. Three of
# them also hold the hand-written schedule encoder and decoder to
# encoding/json on a mirror that stores every service list
# (testutil.WireSchedule): every schedule FuzzScheduleDecode decodes must give
# Schedule.AppendJSON == json.Marshal of its mirror, every state
# FuzzSnapshotDoor admits state.appendJSON == json.Marshal of its mirror, and
# FuzzFileScheduleDecode holds a file's decoder to accept exactly the service
# lists that name a copy's readers, and to encode what it accepts as the
# mirror does.
# FuzzCoverageExtension holds the commit bar's coverage extension (a schedule
# checked against the one it replaces plus the epoch's requests) to the full
# check of everything served, on arbitrary decoded schedules, and
# FuzzCapacityExtension holds the bar's kept ledger, moved from one decoded
# schedule to the next, to a fresh build of the next: the same overflows and
# the same profile, bit for bit. FuzzGroupedReplay holds SORP's grouped
# probe-log replay to re-asking every logged probe through the capacity
# sweep, on arbitrary moves of the base, and FuzzRefusalMemo the rejective
# greedy's refusal memo to a run that asks every question, on arbitrary
# near-full ledgers.
# FuzzMergeEncodings holds the gateway's byte merge of shard plans to the
# decode–merge–encode it replaced, and FuzzParseShard holds vspgateway's
# -shard parser to what gateway.New accepts. FuzzReservationRequest holds
# both intake doors' screening to the API (no arrival after the start), and
# the trace readers (CSV, JSONL) and the topology spec parser behind the
# command-line tools accept only what they validate.
fuzz:
	$(GO) test -fuzz=FuzzWALDecode -fuzztime=10s ./internal/wal
	$(GO) test -fuzz=FuzzScheduleDecode -fuzztime=10s ./internal/server
	$(GO) test -fuzz=FuzzFileScheduleDecode -fuzztime=10s ./internal/schedule
	$(GO) test -fuzz=FuzzCoverageExtension -fuzztime=10s ./internal/schedule
	$(GO) test -fuzz=FuzzCapacityExtension -fuzztime=10s ./internal/occupancy
	$(GO) test -fuzz=FuzzGroupedReplay -fuzztime=10s ./internal/occupancy
	$(GO) test -fuzz=FuzzRefusalMemo -fuzztime=10s ./internal/ivs
	$(GO) test -fuzz=FuzzScheduleFile -fuzztime=10s -fuzzminimizetime=1s ./cmd/vspsim
	$(GO) test -fuzz=FuzzSnapshotDoor -fuzztime=10s -fuzzminimizetime=1s ./internal/horizon
	$(GO) test -fuzz=FuzzApplyReplicated -fuzztime=10s -fuzzminimizetime=1s ./internal/horizon
	$(GO) test -fuzz=FuzzMergeEncodings -fuzztime=10s -fuzzminimizetime=1s ./internal/gateway
	$(GO) test -fuzz=FuzzParseShard -fuzztime=10s ./cmd/vspgateway
	$(GO) test -fuzz=FuzzReservationRequest -fuzztime=10s ./internal/api
	$(GO) test -fuzz=FuzzReadCSV -fuzztime=10s ./internal/workload
	$(GO) test -fuzz=FuzzReadJSONL -fuzztime=10s ./internal/workload
	$(GO) test -fuzz=FuzzDecode -fuzztime=10s ./internal/topology

cover:
	$(GO) test -cover ./internal/... .

bench:
	$(GO) test -bench=. -benchmem .

# Machine-readable scheduler benchmark record (ns/op, allocs/op for the
# one-shot solver and the rolling-horizon incremental extension, plus
# their speedup ratio, and one epoch close over 2 000 and 20 000 requests
# of committed history, in memory and durable, what one reservation
# allocates between Server.ServeHTTP and its ack, how long an acked
# reservation takes to reach a standby over a journal of 0 and 20 000
# records, what replaying six probe logs costs, and what one rejective
# re-plan of a popular title costs on an overflowing ledger). The solves whose
# overflow resolution does most of the work — BenchmarkSchedule,
# BenchmarkFullResolve and the 10k-request BenchmarkSchedule10k — run at
# -cpu 1,2: the 1-CPU rows show what a round costs on one worker, the
# 2-CPU rows what the worker pool's replay and evaluation fan-outs save
# (BenchmarkHorizonAdvance runs at both too, so the horizon speedup has a
# matched pair on any host). Phase 1 runs at -cpu 1,4 so benchjson can
# derive phase1_parallel_speedup from the matched pair, and the gateway
# submit pair at -cpu 4 so it can derive gateway_submit_speedup_3shards;
# the gateway's plan read (unchanged, and after a commit on every shard)
# runs at the default -cpu, where bench-smoke finds it.
# Committed as BENCH_scheduler.json.
bench-json:
	( $(GO) test -run='^$$' -bench='BenchmarkSchedule$$|BenchmarkHorizonAdvance$$|BenchmarkFullResolve$$' -cpu 1,2 \
		-benchmem ./internal/scheduler ./internal/horizon ; \
	  $(GO) test -run='^$$' -bench='BenchmarkHorizonAdvanceHistory$$' \
		-benchmem ./internal/horizon ; \
	  $(GO) test -run='^$$' -bench='BenchmarkProbeLogReplay$$' \
		-benchmem ./internal/occupancy ; \
	  $(GO) test -run='^$$' -bench='BenchmarkScheduleFileRejective$$' \
		-benchmem ./internal/ivs ; \
	  $(GO) test -run='^$$' -bench='BenchmarkReservationPath$$' -benchtime=20000x \
		-benchmem ./internal/server ; \
	  $(GO) test -run='^$$' -bench='BenchmarkStandbyApplyLag$$' -benchtime=20x \
		-benchmem ./internal/server ; \
	  $(GO) test -run='^$$' -bench='BenchmarkSchedulePhase1$$' -cpu 1,4 \
		-benchmem ./internal/scheduler ; \
	  $(GO) test -run='^$$' -bench='BenchmarkGatewaySubmit' -cpu 4 \
		-benchmem ./internal/gateway ; \
	  $(GO) test -run='^$$' -bench='BenchmarkGatewayPlanRead$$' \
		-benchmem ./internal/gateway ; \
	  $(GO) test -run='^$$' -bench='BenchmarkSchedule10k$$' -cpu 1,2 -benchtime=1x \
		-timeout=60m -benchmem ./internal/scheduler ) \
		| $(GO) run ./cmd/benchjson -out BENCH_scheduler.json

# Quick regression smoke for CI: short runs (best of 3 single iterations)
# of BenchmarkSchedule, BenchmarkFullResolve and BenchmarkHorizonAdvanceHistory
# — the batch solve, which has no history, ten re-solves whose overflow
# resolution does most of the work, and one epoch close on top of a long
# history — must stay within 2x of the committed BENCH_scheduler.json
# baseline, in ns/op and in B/op. Catches order-of-magnitude hot-path and
# allocation regressions, including victim evaluations that go back to
# allocating their working state and a close that starts re-copying its
# history, without the cost or noise-sensitivity of a full bench run.
# BenchmarkReservationPath rides along at 2000 reservations a run, where
# its B/op is steady: the per-request garbage http.TimeoutHandler used to
# make alone was twice what a reservation allocates now, so its return
# fails here. BenchmarkGatewayPlanRead rides along too, 200 reads of a
# 160 KB plan each: /unchanged with no shard's schedule replaced, where
# decoding, merging and encoding per read again allocates a hundred times
# its B/op, and /after_commit with all three replaced before every read,
# where decoding the shard schedules into structs and cloning them to merge
# allocates three times its B/op. BenchmarkStandbyApplyLag rides along at
# 20 reservations a run: a standby's poll reads only the records it ships, so
# the rung over a journal of 20 000 records reads what the empty one does, and
# a poll that goes back to reading the whole journal allocates 500 times its
# B/op there (5.6 MB) and is 50 times slower; the B/op is the steadier of the
# two, as the lag's ns/op moves by 2x between runs of the same code.
# BenchmarkProbeLogReplay rides along at 2000 replays of its six logs a run:
# it allocates nothing, so its guard is the time a replay takes per probe,
# which is most of what an overflowing solve spends. So does
# BenchmarkScheduleFileRejective, at 2000 re-plans a run of batch_solve's most
# requested title under a ban, on a view of its overflowing phase-1 ledger:
# the rejective greedy's walk over its candidates, the rest of that spend,
# which phase 1's BenchmarkScheduleFileChain (no ledger) never reaches. It
# allocates nothing either; the walk that still visited every copy refused
# for good, passing each over in turn, took 2.2-2.9 times as long.
bench-smoke:
	( $(GO) test -run='^$$' -bench='BenchmarkSchedule$$|BenchmarkFullResolve$$|BenchmarkHorizonAdvanceHistory$$' -short -benchtime=1x -count=3 -benchmem \
		./internal/scheduler ./internal/horizon ; \
	  $(GO) test -run='^$$' -bench='BenchmarkProbeLogReplay$$' -benchtime=2000x -count=3 -benchmem \
		./internal/occupancy ; \
	  $(GO) test -run='^$$' -bench='BenchmarkScheduleFileRejective$$' -benchtime=2000x -count=3 -benchmem \
		./internal/ivs ; \
	  $(GO) test -run='^$$' -bench='BenchmarkReservationPath$$' -benchtime=2000x -count=3 -benchmem \
		./internal/server ; \
	  $(GO) test -run='^$$' -bench='BenchmarkStandbyApplyLag$$' -benchtime=20x -count=3 -benchmem \
		./internal/server ; \
	  $(GO) test -run='^$$' -bench='BenchmarkGatewayPlanRead$$/^(unchanged|after_commit)$$' -benchtime=200x -count=3 -benchmem \
		./internal/gateway ) \
		| $(GO) run ./cmd/benchjson -check BENCH_scheduler.json -max-ratio 2

# Regenerate every paper figure/table as text (see EXPERIMENTS.md).
results: build
	$(BIN)/vspexp -exp all -scale paper -repeats 3

# Regenerate the figures as SVG charts under figures/.
figures: build
	mkdir -p figures
	for f in fig5 fig6 fig7 fig8 fig9 fig-online fig-replication fig-locality; do \
		$(BIN)/vspexp -exp $$f -scale paper -repeats 3 -format svg -out figures; \
	done

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/metro-vod
	$(GO) run ./examples/heat-metrics
	$(GO) run ./examples/capacity-planning
	$(GO) run ./examples/trace-replay
	$(GO) run ./examples/replication
	$(GO) run ./examples/fault-repair
	$(GO) run ./examples/rolling-horizon
	$(GO) run ./examples/failover
	$(GO) run ./examples/sharded-intake
	$(GO) run ./examples/load-demo

# Two-node failover demo: durable primary + warm standby in one process,
# kill, fence, promote, byte-identical plan check (examples/failover).
failover-demo:
	$(GO) run ./examples/failover

# Sharded intake demo: a routing gateway over three horizon shards (one
# a durable primary/standby pair), placement policy comparison, merged
# plan validation, and a live primary kill with automatic promotion
# (examples/sharded-intake).
sharded-demo:
	$(GO) run ./examples/sharded-intake

# Load harness demo: a flash-crowd Pattern trace streamed straight into
# the closed-loop harness against a 2-shard gateway whose shards close
# their own epochs (examples/load-demo).
load-demo:
	$(GO) run ./examples/load-demo

# Closed-loop load measurement: generate a structured trace with vspgen,
# replay it with vspload, and merge latency percentiles/shed rate into
# BENCH_load.json as the entry named "bench-load" (-name merges; without it
# vspload overwrites the file, chaos-bench's pair included). Needs a running
# target: `make bench-load TARGET=http://127.0.0.1:8080`.
bench-load: build
	$(BIN)/vspgen -kind topology -gen metro -storages 6 -users 4 > /tmp/vsp-load-topo.json
	$(BIN)/vspgen -kind catalog -titles 50 > /tmp/vsp-load-catalog.json
	$(BIN)/vspgen -kind trace -topo /tmp/vsp-load-topo.json -catalog /tmp/vsp-load-catalog.json \
		-requests 20000 -diurnal 0.5 -flash 20h:3:0:0.7 -format jsonl -out /tmp/vsp-load-trace.jsonl
	$(BIN)/vspload -target $(TARGET) -trace /tmp/vsp-load-trace.jsonl -c 16 -name bench-load -out BENCH_load.json

clean:
	rm -rf $(BIN) figures
