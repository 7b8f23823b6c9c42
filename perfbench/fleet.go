package main

import (
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"perfpred/internal/fleet"
	"perfpred/internal/lqn"
	"perfpred/internal/obs"
	"perfpred/internal/rm"
	"perfpred/internal/workload"
)

// fleetSize sizes fleet-routed.
type fleetSize struct {
	pools, clientsPerPool int
	// simSeconds is each run's measured horizon; a sixth of it more is
	// warm-up. A run takes about a host second, so -seconds is the
	// number of runs.
	simSeconds float64
}

var defaultFleetSize = fleetSize{pools: 256, clientsPerPool: 250, simSeconds: 10}

// fleetConfig is the routed, replanned fleet: pools of the three
// case-study architectures round-robin, each carrying 10% buy clients
// (150 ms goal) and 90% browse clients (300 ms goal), routed by the
// affinity scorer while Algorithm 1 replans every 2 simulated seconds
// over warm-started layered solves.
func fleetConfig(size fleetSize, seed int64, shards int, scorer fleet.Scorer, pred rm.Predictor) fleet.Config {
	buy := size.clientsPerPool / 10
	return fleet.Config{
		Pools:   size.pools,
		Shards:  shards,
		Archs:   workload.CaseStudyServers(),
		DB:      workload.CaseStudyDB(),
		Demands: workload.CaseStudyDemands(),
		Load: workload.Workload{
			{Class: workload.BuyClass(0.150), Clients: buy},
			{Class: workload.BrowseClass(0.300), Clients: size.clientsPerPool - buy},
		},
		Seed:         seed,
		WarmUp:       size.simSeconds / 6,
		Duration:     size.simSeconds,
		MaxRTSamples: 64,
		Scorer:       scorer,
		ReplanPeriod: 2,
		Replanner:    &rm.Replanner{Pred: pred},
		WarmupDelay:  0.5,
		DrainDelay:   1,
	}
}

// newPlanningPredictor builds the replanner's predictor: per-
// architecture layered models under the browse mix on retained
// warm-started solvers. Every run gets its own, so solver history never
// carries from one run to the next.
func newPlanningPredictor() (*rm.LQNPredictor, error) {
	return rm.NewLQNPredictor(workload.CaseStudyServers(), workload.CaseStudyDB(), workload.CaseStudyDemands(),
		workload.BrowseClass(0.300), lqn.Options{})
}

// fingerprint is what a seeded fleet run must reproduce exactly, on
// every run and at any shard count.
type fingerprint struct {
	events, decisions, remote uint64
	replans                   int
	classes                   string // per class: name, completed, mean RT bits
}

func fingerprintOf(res *fleet.Result) fingerprint {
	fp := fingerprint{events: res.Trade.EventsFired, decisions: res.Decisions, remote: res.Remote, replans: res.Replans}
	for _, name := range sortedKeys(res.Trade.PerClass) {
		c := res.Trade.PerClass[name]
		fp.classes += fmt.Sprintf("%s:%d:%x;", name, c.Completed, math.Float64bits(c.MeanRT))
	}
	return fp
}

// checkFingerprint counts one fleet run as an operation, failed when
// its fingerprint differs from the first run's.
func checkFingerprint(r *runner, what string, ref fingerprint, res *fleet.Result) {
	r.ops(1, 0)
	if got := fingerprintOf(res); got != ref {
		r.ops(0, 1)
		r.fail("fleet fingerprint of %s differs from the first run: %+v vs %+v", what, got, ref)
	}
}

// fleetRun is one timed fleet.Run.
type fleetRun struct {
	res   *fleet.Result
	wall  time.Duration
	setup time.Duration // see fleetSetup
	rssMB float64       // peak RSS during the run
}

// setupHorizon is the simulated time of the set-up run: a
// millisecond, far short of the first replan at 2 s, so the run is
// almost all the fleet's construction and tear-down.
const setupHorizon = 1e-3

// fleetSetup times what stands before a fleet's first simulated event:
// building the planning predictor, then a fleet.Run of the same size
// and seed over setupHorizon, which builds every pool, client and
// shard and stops. The predictor builds its solvers lazily, so its
// construction alone is tens of microseconds.
func fleetSetup(size fleetSize, seed int64, shards int) (time.Duration, error) {
	t0 := time.Now()
	pred, err := newPlanningPredictor()
	if err != nil {
		return 0, err
	}
	cfg := fleetConfig(size, seed, shards, fleet.ClassAffinity{}, pred)
	cfg.WarmUp, cfg.Duration = 0, setupHorizon
	if _, err := fleet.Run(cfg); err != nil {
		return 0, fmt.Errorf("set-up run: %w", err)
	}
	return time.Since(t0), nil
}

// runFleetOnce times the set-up, then runs the fleet with a fresh
// predictor. trace, when non-nil, wraps the scorer and predictor to
// time every call.
func runFleetOnce(size fleetSize, seed int64, shards int, trace *fleetTrace) (*fleetRun, error) {
	setup, err := fleetSetup(size, seed, shards)
	if err != nil {
		return nil, err
	}
	// Start every run from a collected heap returned to the system, so
	// the set-up fleet's garbage is neither collected on this run's
	// clock nor resident under its peak RSS.
	debug.FreeOSMemory()
	resetPeakRSS()
	base, err := newPlanningPredictor()
	if err != nil {
		return nil, err
	}
	var pred rm.Predictor = base
	var sc fleet.Scorer = fleet.ClassAffinity{}
	if trace != nil {
		pred = &tracedPredictor{Predictor: base, t: trace}
		sc = &tracedScorer{Scorer: sc, t: trace}
	}
	cfg := fleetConfig(size, seed, shards, sc, pred)
	start := time.Now()
	res, err := fleet.Run(cfg)
	wall := time.Since(start)
	if err != nil {
		return nil, err
	}
	return &fleetRun{res: res, wall: wall, setup: setup, rssMB: peakRSSMB()}, nil
}

// fleetTrace collects the traced run's wrapped-call timings.
type fleetTrace struct {
	tr     *tracer
	root   int64
	picks  atomic.Int64
	pickNS atomic.Int64

	mu        sync.Mutex
	predCalls []float64 // ns
}

// tracedScorer times every Pick; every 4096th becomes a span, which
// keeps the span file to a few hundred entries a run.
type tracedScorer struct {
	fleet.Scorer
	t *fleetTrace
}

func (s *tracedScorer) Pick(v *fleet.View, origin, class int) int {
	t0 := time.Now()
	p := s.Scorer.Pick(v, origin, class)
	t1 := time.Now()
	s.t.pickNS.Add(int64(t1.Sub(t0)))
	if s.t.picks.Add(1)%4096 == 0 {
		s.t.tr.record("fleet.pick", s.t.root, 0, t0, t1)
	}
	return p
}

// tracedPredictor times every call the replanner makes into the
// planning predictor.
type tracedPredictor struct {
	rm.Predictor
	t *fleetTrace
}

func (p *tracedPredictor) Predict(arch string, n float64) (float64, error) {
	t0 := time.Now()
	v, err := p.Predictor.Predict(arch, n)
	p.t.note("rm.predict", t0)
	return v, err
}

func (p *tracedPredictor) MaxClients(arch string, goalRT float64) (float64, error) {
	t0 := time.Now()
	v, err := p.Predictor.MaxClients(arch, goalRT)
	p.t.note("rm.max_clients", t0)
	return v, err
}

// note keeps every call's duration; like picks, only every 256th call
// becomes a span.
func (t *fleetTrace) note(name string, t0 time.Time) {
	t1 := time.Now()
	t.mu.Lock()
	t.predCalls = append(t.predCalls, float64(t1.Sub(t0)))
	n := len(t.predCalls)
	t.mu.Unlock()
	if n%256 == 0 {
		t.tr.record(name, t.root, 0, t0, t1)
	}
}

func runFleet(r *runner, size fleetSize) error {
	runs := max(1, r.opt.seconds)
	if r.opt.trace {
		runs = max(1, runs/2)
	}
	r.logf("fleet-routed: %d pools x %d clients, %g sim-s, %d runs on 2 shards", size.pools, size.clientsPerPool, size.simSeconds, runs)
	var plain []*fleetRun
	for i := 0; i < runs; i++ {
		fr, err := runFleetOnce(size, r.opt.seed, 2, nil)
		if err != nil {
			return err
		}
		plain = append(plain, fr)
		r.logf("fleet-routed: run %d: %v wall, %d events", i, fr.wall.Round(time.Millisecond), fr.res.Trade.EventsFired)
	}
	ref := fingerprintOf(plain[0].res)
	check := func(what string, fr *fleetRun) { checkFingerprint(r, what, ref, fr.res) }
	for i, fr := range plain {
		check(fmt.Sprintf("run %d", i), fr)
	}
	// Every run does the same work, so the median run is the figure; a
	// run that shares the host with other tenants' bursts moves it less
	// than it moves a sum. The latency is the resource manager's: the
	// median replan over all runs. Its upper percentiles are reported
	// but not gated: which replans must solve afresh rather than hit the
	// capacity memo depends on the seed, so they move with it.
	var walls, setups, rss, replans []float64
	for _, fr := range plain {
		walls = append(walls, millis(fr.wall))
		setups = append(setups, seconds(fr.setup))
		rss = append(rss, fr.rssMB)
		for _, d := range fr.res.ReplanLatencies {
			replans = append(replans, millis(d))
		}
	}
	tailP := tailPercentile(len(replans))
	events := float64(plain[0].res.Trade.EventsFired)
	rate := events / (median(walls) / 1e3)
	// The same seed on one shard must reproduce the run; its wall time
	// is also the 1-shard side of the shard speed-up.
	one, err := runFleetOnce(size, r.opt.seed, 1, nil)
	if err != nil {
		return err
	}
	check("the 1-shard run", one)

	if !r.opt.trace {
		r.set("setup_s", median(setups))
		r.set("throughput_per_s", rate)
		r.set("p50_ms", median(replans))
		r.set("peak_rss_mb", median(rss))
		r.name("fleet_events_per_s", rate, "1/s", len(plain), "throughput_per_s (events per run / median run wall)")
		r.name("fleet_run_wall_p50_ms", median(walls), "ms", len(plain), "")
		r.name("fleet_run_wall_q3_ms", quantile(walls, 0.75), "ms", len(plain), "")
		r.name("fleet_run_wall_max_ms", maxOf(walls), "ms", len(plain), "")
		r.name("replan_p50_ms", median(replans), "ms", len(replans), "p50_ms")
		r.name(fmt.Sprintf("replan_p%g_ms", 100*tailP), quantile(replans, tailP), "ms", len(replans), "")
		r.name("fleet_events_per_run", events, "count", 0, "")
		return nil
	}

	ft := &fleetTrace{tr: r.tr}
	root := r.tr.start("fleet.run", 0, 0)
	ft.root = root.id()
	var traced *fleetRun
	snap := withObs(func() { traced, err = runFleetOnce(size, r.opt.seed, 2, ft) })
	root.end()
	if err != nil {
		return err
	}
	check("the traced run", traced)
	res := traced.res
	tracedRate := float64(res.Trade.EventsFired) / seconds(traced.wall)
	r.set("trace_overhead_pct", 100*(rate-tracedRate)/rate)
	setFleetLayers(r, traced, ft, snap)
	// Replan latencies come from the untraced runs: the wrapped
	// predictor's timing would inflate them.
	r.set("rm.replan_p50_us", 1e3*median(replans))
	r.set("rm.replan_max_us", 1e3*maxOf(replans))
	r.set("sim.shard_speedup_2v1", millis(one.wall)/median(walls))
	r.finishTrace()
	return nil
}

// setFleetLayers derives the fleet's per-layer metrics from the traced
// run's result, wrapped calls and obs counters.
func setFleetLayers(r *runner, fr *fleetRun, ft *fleetTrace, snap obs.Snapshot) {
	res := fr.res
	r.set("sim.events", float64(res.Trade.EventsFired))
	r.set("sim.barriers", float64(res.Barriers))
	r.set("sim.events_per_barrier", ratio(float64(res.Trade.EventsFired), float64(res.Barriers)))
	r.set("sim.barrier_interval_us", ratio(micros(fr.wall), float64(res.Barriers)))
	setReuse(r, snap.Counters)
	r.set("fleet.decisions", float64(res.Decisions))
	r.set("fleet.remote_pct", 100*ratio(float64(res.Remote), float64(res.Decisions)))
	r.set("fleet.route_ns", ratio(float64(ft.pickNS.Load()), float64(ft.picks.Load())))
	r.set("rm.replans", float64(res.Replans))
	r.set("rm.predictor_calls_per_replan", ratio(float64(len(ft.predCalls)), float64(res.Replans)))
	r.set("rm.predictor_call_us", median(ft.predCalls)/1e3)
	r.set("lqn.solves", float64(snap.Counters["lqn_solver_solves"]))
	r.set("lqn.mva_iterations_per_solve", ratio(float64(snap.Counters["lqn_solver_mva_iterations"]), float64(snap.Counters["lqn_solver_solves"])))
}
