// Package trade is the discrete-event reconstruction of the paper's
// measurement testbed: the IBM Trade benchmark deployed on WebSphere
// application servers with a DB2 database server, driven by closed
// JMeter-style client populations. It produces the "measured"
// response times, throughputs and utilisations against which the
// historical, layered queuing and hybrid predictions are scored.
//
// The queuing structure follows the paper's system model (§2): each
// application server has a FIFO waiting queue and processes up to 50
// requests at the same time via time-sharing; the database server has
// one FIFO queue per application server and time-shares up to 20
// requests. A request holds its application-server slot across its
// synchronous database calls (the servlet-thread semantics of the
// WebSphere platform). The §7.2 caching extension is modelled with a
// genuine LRU over per-client session data, so cache behaviour emerges
// from the simulation rather than from a formula.
package trade

import (
	"errors"
	"fmt"

	"perfpred/internal/scenario"
	"perfpred/internal/workload"
)

// CacheConfig enables the §7.2 indirect-persistence variant, in which
// the application server's main memory caches per-client session data:
// a request that misses the cache pays an extra database call to read
// its session back.
type CacheConfig struct {
	// SizeBytes is the memory available for session data.
	SizeBytes int64
	// SessionBytesMean is the mean per-client session size;
	// per-client sizes are sampled exponentially around it, giving the
	// variable session-size distribution the paper describes.
	SessionBytesMean float64
	// MissExtraDBCalls is the number of additional database calls a
	// cache miss costs (1 in the paper: one session read).
	MissExtraDBCalls float64
	// MissDBTimePerCall overrides the request type's per-call database
	// time for the session read; 0 means use the request type's value.
	MissDBTimePerCall float64
}

// Validate reports the first structural problem with the cache
// configuration.
func (c CacheConfig) Validate() error {
	switch {
	case c.SizeBytes <= 0:
		return errors.New("trade: cache size must be positive")
	case c.SessionBytesMean <= 0:
		return errors.New("trade: session size mean must be positive")
	case c.MissExtraDBCalls < 0:
		return errors.New("trade: miss extra db calls must be non-negative")
	case c.MissDBTimePerCall < 0:
		return errors.New("trade: miss db time must be non-negative")
	}
	return nil
}

// RoutingPolicy selects how the workload manager routes requests
// across the application-server tier (§2).
type RoutingPolicy string

const (
	// RouteSticky assigns each client a home server at start-up,
	// spreading clients in proportion to server speed — the division a
	// workload manager makes from the speed benchmarks. This is the
	// default and the single-server behaviour.
	RouteSticky RoutingPolicy = "sticky"
	// RouteRoundRobin routes each request to the next server in turn,
	// ignoring speed differences.
	RouteRoundRobin RoutingPolicy = "roundrobin"
	// RouteLeastBusy routes each request to the server with the
	// fewest held-plus-waiting threads (join-the-shortest-queue).
	RouteLeastBusy RoutingPolicy = "leastbusy"
)

// CriticalSectionConfig describes the §8.1 implicit bottleneck.
type CriticalSectionConfig struct {
	// MeanTime is the mean (exponential) CPU time spent holding the
	// lock, seconds at reference speed.
	MeanTime float64
	// Fraction is the probability a request enters the section.
	Fraction float64
}

// Validate reports the first structural problem.
func (c CriticalSectionConfig) Validate() error {
	if c.MeanTime <= 0 {
		return errors.New("trade: critical section needs positive mean time")
	}
	if c.Fraction <= 0 || c.Fraction > 1 {
		return fmt.Errorf("trade: critical-section fraction %v outside (0,1]", c.Fraction)
	}
	return nil
}

// Config describes one measurement run: an application-server tier
// (one server by default) plus the shared database server under a
// closed multi-class workload, matching how the paper benchmarks each
// architecture and models each hosted application.
type Config struct {
	// Server is the single application server; ignored when Servers is
	// set.
	Server workload.ServerArch
	// Servers, when non-empty, defines a multi-server application tier
	// (the paper's "tier of application servers accessing a single
	// database server", §2). Each server keeps its own FIFO queue at
	// the database.
	Servers []workload.ServerArch
	// Routing selects the workload-manager policy for multi-server
	// tiers; empty means RouteSticky.
	Routing RoutingPolicy
	DB      workload.DBServer
	Demands map[workload.RequestType]workload.Demand
	Load    workload.Workload

	// Scenario, when non-nil, replaces Load with a compiled declarative
	// scenario: closed cohorts become client populations with their
	// declared think-time distributions, and open cohorts (Poisson,
	// MMPP, trace replay, with optional temporal patterns) drive
	// spec-defined arrival generators through the pooled request
	// lifecycle. Each cohort's generator runs on sim.Split streams keyed
	// by its cohort index off the pool root, so spec-driven runs are
	// bit-identical at any shard count. Mutually exclusive with Load;
	// incompatible with DetailedOperations and the session cache (open
	// scenario traffic carries no per-client session identity).
	Scenario *scenario.Compiled

	// Seed fixes all random streams; equal seeds give identical runs.
	Seed int64
	// WarmUp is the simulated time (seconds) discarded before
	// measurement starts (the paper uses a 1-minute warm-up).
	WarmUp float64
	// Duration is the simulated measurement window (seconds).
	Duration float64
	// MaxRTSamples bounds the per-class response-time sample buffers
	// used for percentile estimation (reservoir sampling beyond it).
	// 0 means DefaultMaxRTSamples.
	MaxRTSamples int

	// Cache, when non-nil, enables the §7.2 session-cache variant.
	Cache *CacheConfig

	// CriticalSection, when non-nil, adds an §8.1-style implicit
	// bottleneck: a fraction of requests must hold a per-server global
	// lock while executing a code section, creating a serialisation
	// queue no explicit model declares. The historical method absorbs
	// it from measurements; the layered method needs the queue
	// profiled and added to its model.
	CriticalSection *CriticalSectionConfig

	// DetailedOperations switches single-type classes from the coarse
	// request-type model to the §3.1 operation level: browse clients
	// randomly select among Trade's read operations and buy clients
	// run register/login → 10 buys → logoff sessions with a growing
	// portfolio. Aggregate demands match the coarse model, and the
	// result gains per-operation measurements.
	DetailedOperations bool

	// StreamingPercentiles replaces the per-class response-time sample
	// buffers with streaming P² quantile estimators: O(1) memory per
	// class regardless of run length, at the cost of estimated (rather
	// than sampled) percentiles. Results then carry Quantiles instead
	// of Samples. The default keeps the reservoir buffers, which the
	// calibration helpers and golden outputs depend on.
	StreamingPercentiles bool
	// StreamQuantiles optionally sets the probabilities the streaming
	// estimators track (each in (0,1)); empty selects
	// stats.DefaultStreamQuantiles. Only valid with
	// StreamingPercentiles.
	StreamQuantiles []float64

	// CompatTypeChoice selects the legacy CDF-inversion draw-to-type
	// mapping for multi-type class mixes instead of the precomputed
	// alias table. Both sample the identical distribution with one
	// uniform draw per pick; only the per-seed type sequence differs.
	// Single-type mixes never draw, under either setting.
	CompatTypeChoice bool

	// Pools, when > 1, switches the run to the sharded fleet model: the
	// configured network (application tier + database) is replicated
	// Pools times, each replica carrying the configured Load with its
	// own random streams split from Seed by stable pool index
	// (sim.SplitSeed), so the fleet's trajectory is identical at any
	// shard count. 0 or 1 with Shards ≤ 1 selects the legacy
	// single-engine path, which is bit-identical to previous releases.
	// Pools defaults to Shards when unset in a sharded run.
	Pools int
	// Shards is the number of engine shards the pools are partitioned
	// across (pool i runs on shard i mod Shards); each shard advances
	// on its own engine, synchronised in conservative time windows. 0
	// or 1 runs all pools on one engine. Shards above Pools are clamped
	// to Pools.
	Shards int
	// RemoteFraction is the probability a closed client's request is
	// forwarded to a uniformly chosen remote pool instead of its own —
	// the cross-shard traffic of a fleet with shared-nothing replicas
	// and occasional remote service. 0 (the default) makes pools fully
	// independent. Requires a sharded run with at least two pools; must
	// be < 1.
	RemoteFraction float64
	// ShardLatency is the one-way network latency of a cross-pool
	// request hop, seconds; it doubles as the conservative lookahead, so
	// it must be positive when RemoteFraction is. 0 selects
	// DefaultShardLatency. A remote response time includes two hops.
	ShardLatency float64

	// PoolArchs, when non-empty, makes the fleet heterogeneous: pool i
	// runs architecture PoolArchs[i mod len(PoolArchs)] instead of
	// Server, so one sharded run can mix AppServS/F/VF pools the way the
	// §9 server room does. Requires a sharded run; incompatible with a
	// multi-server tier (Servers).
	PoolArchs []workload.ServerArch

	// Router, when non-nil, replaces the static pool assignment with
	// per-request routing: every closed client asks the router which
	// pool serves each request (internal/fleet provides scorer-backed
	// implementations). Requires a sharded run with at least two pools;
	// mutually exclusive with RemoteFraction, whose random sibling draw
	// it supersedes. The hop latency (and conservative lookahead) is
	// ShardLatency even when all decisions happen to stay local.
	Router PoolRouter

	// BarrierHook, when non-nil, is installed as the coordinator's
	// window-barrier callback (sim.Coordinator.SetBarrierHook): it runs
	// between windows, when every shard is quiescent, at the identical
	// sequence of simulated times for any shard count. The fleet layer
	// uses it to publish routing snapshots and replan in-loop. Requires
	// a sharded run; the barrier cadence is the resolved lookahead.
	BarrierHook func(now float64)
}

// DefaultMaxRTSamples bounds percentile sample buffers by default.
const DefaultMaxRTSamples = 200000

// DefaultShardLatency is the cross-pool hop latency (and conservative
// lookahead) used when a sharded run enables RemoteFraction without
// setting ShardLatency: 5 ms, a LAN round trip's worth of headroom
// that keeps synchronisation windows long enough to batch usefully.
const DefaultShardLatency = 0.005

// sharded reports whether the configuration selects the fleet model
// (shard coordinator + pool replicas) rather than the legacy
// single-engine simulator.
func (c Config) sharded() bool { return c.Pools > 1 || c.Shards > 1 }

// effectivePools resolves the replica count of a sharded run: Pools,
// defaulting to Shards when only the shard count was given.
func (c Config) effectivePools() int {
	if c.Pools > 0 {
		return c.Pools
	}
	return c.Shards
}

// effectiveShards resolves the engine count: at least 1, never more
// than the pool count (surplus shards would idle).
func (c Config) effectiveShards() int {
	s := c.Shards
	if s < 1 {
		s = 1
	}
	if p := c.effectivePools(); s > p {
		s = p
	}
	return s
}

// tier returns the application-server tier: Servers when set,
// otherwise the single Server.
func (c Config) tier() []workload.ServerArch {
	if len(c.Servers) > 0 {
		return c.Servers
	}
	return []workload.ServerArch{c.Server}
}

// effectiveLoad resolves the workload the run carries: the scenario's
// derived workload when a Scenario is set, the static Load otherwise.
func (c Config) effectiveLoad() workload.Workload {
	if c.Scenario != nil {
		return c.Scenario.Workload()
	}
	return c.Load
}

// Validate reports the first structural problem with the run
// configuration.
func (c Config) Validate() error {
	seen := make(map[string]bool)
	for _, s := range c.tier() {
		if err := s.Validate(); err != nil {
			return err
		}
		if seen[s.Name] {
			return fmt.Errorf("trade: duplicate server name %q in tier (names must be unique)", s.Name)
		}
		seen[s.Name] = true
	}
	switch c.Routing {
	case "", RouteSticky, RouteRoundRobin, RouteLeastBusy:
	default:
		return fmt.Errorf("trade: unknown routing policy %q", c.Routing)
	}
	if err := c.DB.Validate(); err != nil {
		return err
	}
	if len(c.Demands) == 0 {
		return errors.New("trade: no request-type demands configured")
	}
	for rt, d := range c.Demands {
		if err := d.Validate(); err != nil {
			return fmt.Errorf("trade: demand for %q: %w", rt, err)
		}
	}
	if c.Scenario != nil {
		if len(c.Load) > 0 {
			return errors.New("trade: Scenario and Load are mutually exclusive (the scenario defines the workload)")
		}
		if c.DetailedOperations {
			return errors.New("trade: DetailedOperations is not supported with a Scenario")
		}
		if c.Cache != nil {
			return errors.New("trade: the session cache is not supported with a Scenario (open scenario traffic has no per-client sessions)")
		}
	}
	load := c.effectiveLoad()
	if err := load.Validate(); err != nil {
		return err
	}
	hasOpen := false
	for _, p := range load {
		if p.Open() {
			hasOpen = true
		}
	}
	if load.TotalClients() == 0 && !hasOpen {
		return errors.New("trade: workload has no clients or open streams")
	}
	for _, p := range load {
		for rt := range p.Class.Mix {
			if _, ok := c.Demands[rt]; !ok {
				return fmt.Errorf("trade: class %q uses request type %q with no demand", p.Class.Name, rt)
			}
		}
	}
	if c.WarmUp < 0 || c.Duration <= 0 {
		return errors.New("trade: need non-negative warm-up and positive duration")
	}
	if c.Cache != nil {
		if err := c.Cache.Validate(); err != nil {
			return err
		}
	}
	if c.CriticalSection != nil {
		if err := c.CriticalSection.Validate(); err != nil {
			return err
		}
	}
	if len(c.StreamQuantiles) > 0 && !c.StreamingPercentiles {
		return errors.New("trade: StreamQuantiles requires StreamingPercentiles")
	}
	for _, q := range c.StreamQuantiles {
		if q <= 0 || q >= 1 {
			return fmt.Errorf("trade: stream quantile %v outside (0,1)", q)
		}
	}
	if c.Pools < 0 || c.Shards < 0 {
		return errors.New("trade: pools and shards must be non-negative")
	}
	if c.RemoteFraction < 0 || c.RemoteFraction >= 1 {
		return fmt.Errorf("trade: remote fraction %v outside [0,1)", c.RemoteFraction)
	}
	if c.ShardLatency < 0 {
		return errors.New("trade: shard latency must be non-negative")
	}
	if !c.sharded() {
		if c.RemoteFraction != 0 || c.ShardLatency != 0 {
			return errors.New("trade: RemoteFraction/ShardLatency require a sharded run (Pools or Shards > 1)")
		}
		if len(c.PoolArchs) > 0 || c.Router != nil || c.BarrierHook != nil {
			return errors.New("trade: PoolArchs/Router/BarrierHook require a sharded run (Pools or Shards > 1)")
		}
		return nil
	}
	// Sharded fleet restrictions: the per-operation and streaming-P²
	// accumulators have no cross-pool merge, so those variants stay on
	// the legacy engine.
	if c.DetailedOperations {
		return errors.New("trade: DetailedOperations is not supported in sharded runs")
	}
	if c.StreamingPercentiles {
		return errors.New("trade: StreamingPercentiles is not supported in sharded runs")
	}
	if c.RemoteFraction > 0 && c.effectivePools() < 2 {
		return errors.New("trade: RemoteFraction needs at least two pools")
	}
	if len(c.PoolArchs) > 0 {
		if len(c.Servers) > 0 {
			return errors.New("trade: PoolArchs is incompatible with a multi-server tier (Servers)")
		}
		for _, a := range c.PoolArchs {
			if err := a.Validate(); err != nil {
				return err
			}
		}
	}
	if c.Router != nil {
		if c.effectivePools() < 2 {
			return errors.New("trade: Router needs at least two pools")
		}
		if c.RemoteFraction > 0 {
			return errors.New("trade: Router and RemoteFraction are mutually exclusive")
		}
	}
	return nil
}
