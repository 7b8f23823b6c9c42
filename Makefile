# Verification tiers for the perfpred reproduction.
#
#   make test   — tier 1: build everything and run the full test suite.
#   make race   — race tier: the concurrent Suite, worker pool,
#                 event-core and multi-shard fleet paths under the race
#                 detector (short).
#   make bench  — the performance evidence: event-core micro-benchmarks
#                 (flat allocation counts per event), the LQN solver
#                 fast-path benchmarks, the figure-scale sweep, the
#                 zero-alloc request-loop benchmarks, and the
#                 BENCH_lqn.json / BENCH_trade.json snapshots (commit
#                 them to extend the perf trajectory).
#   make bench-sim — the sharded-engine evidence: scheduler hold
#                 microbenchmarks, the shard-count scaling sweep with
#                 its built-in determinism check, and the 1M-client
#                 headline, snapshotted to BENCH_sim.json (commit it).
#   make bench-fleet — the in-loop resource-manager evidence: per-scorer
#                 routing cost (allocation-free or the run aborts), the
#                 Algorithm-1-vs-plan-oblivious A/B table, warm-started
#                 replan latencies and the routed 1M-client headline,
#                 snapshotted to BENCH_fleet.json (commit it).
#   make metrics-smoke — observability tier: run two quick experiments
#                 with -report and assert the snapshot parses and the
#                 solver, simulator and cache counters actually moved.
#   make bench-serve — the serving evidence: run the predload self
#                 load-test against an in-process service (cold vs warm,
#                 coalesced burst, sustained closed-loop, overload
#                 shedding), snapshotted to BENCH_serve.json (commit it).
#   make serve-smoke — end-to-end serving smoke: build predserve, spawn
#                 it on an ephemeral port, verify a cold build, cache-hit
#                 counter movement over /metrics, and a clean SIGTERM
#                 drain.
#   make bench-scenario — the declarative-scenario evidence: the
#                 flash-sale transient-error study (per-window HYDRA /
#                 LQN / hybrid error vs simulated truth), the
#                 steady-window consistency and legacy bit-equality
#                 check, the 1/2/4-shard determinism fingerprint and
#                 the generated-traffic burstiness self-check,
#                 snapshotted to BENCH_scenario.json (commit it).
#   make bench-regress — the four-family evidence: HYDRA / LQN /
#                 hybrid / regression accuracy-vs-startup-cost table
#                 against one simulated-truth oracle, the training-set
#                 -size accuracy curve, the worker-count fit
#                 determinism fingerprint and the regression-planned
#                 cost-performance frontier, snapshotted to
#                 BENCH_regress.json (commit it).

GO ?= go

.PHONY: test race bench bench-sim bench-fleet bench-serve bench-scenario bench-regress serve-smoke metrics-smoke

test:
	$(GO) build ./... && $(GO) test ./...

race:
	$(GO) test -race ./internal/parallel
	$(GO) test -race -run 'TestSuiteConcurrent|TestSuiteParallelHybrid|TestFigure2ShapeHolds' ./internal/bench
	$(GO) test -race -run 'TestEngine|TestStation|TestMeasureCurve' ./internal/sim ./internal/trade
	$(GO) test -race -run 'TestCoordinator|TestSharded' ./internal/sim ./internal/trade
	$(GO) test -race -run 'TestFleet' ./internal/fleet
	$(GO) test -race -run 'TestConcurrentServing|TestColdStampedeBuildsOnce|TestEvictionRebuild|TestPatientWaiterOutlivesLeaderDeadline|TestOverloadShedsNotCollapses|TestGracefulShutdownDrains' ./internal/serve
	$(GO) test -race ./internal/scenario
	$(GO) test -race -run 'TestScenario|TestFleetScenario' ./internal/trade ./internal/fleet
	$(GO) test -race -run 'TestTrainDeterministicAcrossWorkers' ./internal/regress

bench:
	$(GO) test -run '^$$' -bench 'BenchmarkSchedule|BenchmarkRunDrain|BenchmarkStationSubmit' -benchmem ./internal/sim
	$(GO) test -run '^$$' -bench BenchmarkMeasureCurve -benchtime 2x ./internal/trade
	$(GO) test -run '^$$' -bench 'BenchmarkRequestLoop|BenchmarkCollect|BenchmarkTransientCurve' -benchmem ./internal/trade
	$(GO) test -run '^$$' -bench 'BenchmarkSolve' -benchmem ./internal/lqn
	$(GO) test -run '^$$' -bench 'BenchmarkHybridBuild|BenchmarkBuildRelationship3' -benchmem ./internal/hybrid
	$(GO) run ./cmd/lqnbench -out BENCH_lqn.json
	$(GO) run ./cmd/tradebench -bench -out BENCH_trade.json

bench-sim:
	$(GO) test -run '^$$' -bench 'BenchmarkEngineHold|BenchmarkShard' -benchmem ./internal/sim
	$(GO) run ./cmd/simbench -out BENCH_sim.json

bench-fleet:
	$(GO) run ./cmd/fleetbench -out BENCH_fleet.json

bench-serve:
	$(GO) run ./cmd/predload -out BENCH_serve.json

bench-scenario:
	$(GO) run ./cmd/scenariobench -out BENCH_scenario.json

bench-regress:
	$(GO) run ./cmd/regressbench -out BENCH_regress.json

serve-smoke:
	$(GO) build -o /tmp/perfpred-predserve ./cmd/predserve
	$(GO) run ./cmd/predload -smoke -serve-bin /tmp/perfpred-predserve

metrics-smoke:
	$(GO) run ./cmd/experiments -report /tmp/perfpred-metrics.json gradient cache > /dev/null
	$(GO) run ./cmd/obscheck -in /tmp/perfpred-metrics.json \
		lqn_solver_solves lqn_solver_mva_iterations \
		sim_events_fired trade_requests_completed \
		sessioncache_solves trade_cache_hits
