package trade

import (
	"fmt"
	"math"

	"perfpred/internal/sim"
	"perfpred/internal/stats"
	"perfpred/internal/workload"
)

// This file is the sharded fleet model: Pools replicas of the
// configured network partitioned across Shards engines under a
// sim.Coordinator. Each pool is an ordinary simulator whose random
// streams are split from the run seed by stable pool index
// (sim.SplitSeed), owns all of its state, and — when RemoteFraction is
// enabled — forwards a fraction of client requests to sibling pools
// through the coordinator's conservative message exchange. Because no
// pool state is shared and every cross-pool interaction carries a
// mapping-invariant (time, pool, seq) key, the fleet's trajectory is
// identical at any shard count; shards only decide which engine a
// pool's events fire on.

// xreq is one cross-pool request in flight. It is owned by the ORIGIN
// pool: created and recycled there, with its continuations bound once
// at allocation so the steady-state remote path allocates nothing. The
// destination pool only reads its fields (demand, identity) and runs
// the request through an ordinary pooled reqState with xr set.
type xreq struct {
	s       *simulator // origin pool
	dst     *simulator
	c       *client
	acc     *classAcc
	cls     int // Config.Load index of the client's class (router key)
	d       workload.Demand
	arrival float64 // origin-pool issue time; rt includes both hops
	// homeShard is the origin's shard index, the Send destination for
	// the response hop.
	homeShard int

	next *xreq // free-list link

	arrive func() // bound once: runs on the destination shard
	ret    func() // bound once: runs back on the origin shard
}

// getXreq takes a cross-pool record from the origin's free list,
// binding continuations only on first allocation.
func (s *simulator) getXreq() *xreq {
	xr := s.xFree
	if xr != nil {
		s.xFree = xr.next
		xr.next = nil
		s.poolReuses++
		return xr
	}
	s.poolAllocs++
	xr = &xreq{s: s, homeShard: s.shard.ID()}
	xr.arrive = xr.doArrive
	xr.ret = xr.doReturn
	return xr
}

// putXreq retires a completed cross-pool record.
func (s *simulator) putXreq(xr *xreq) {
	xr.dst = nil
	xr.c = nil
	xr.acc = nil
	xr.next = s.xFree
	s.xFree = xr
}

// issueRemote forwards one client request to a uniformly chosen
// sibling pool — the RemoteFraction traffic model. The demand is drawn
// origin-side (on the origin's own streams, keeping every stream
// pool-local); the destination only executes it.
func (s *simulator) issueRemote(c *client) {
	idx := s.remote.Intn(len(s.pools) - 1)
	if idx >= int(s.poolID) {
		idx++
	}
	s.issueRemoteTo(c, idx)
}

// issueRemoteTo forwards one client request to pool idx. The hop delay
// equals the coordinator lookahead, so the send is always legal. Both
// the random RemoteFraction draw and the fleet router's per-request
// decisions funnel through here.
func (s *simulator) issueRemoteTo(c *client, idx int) {
	dst := s.pools[idx]
	d, _ := s.nextRequest(c)
	xr := s.getXreq()
	xr.dst = dst
	xr.c = c
	xr.acc = c.acc
	xr.cls = c.classIdx
	xr.d = d
	xr.arrival = s.eng.Now()
	s.sendSeq++
	s.shard.Send(dst.shard.ID(), s.poolID, s.sendSeq, s.xLatency, xr.arrive)
}

// doArrive runs on the destination shard when the request hop lands:
// the destination pool serves it like an open arrival — no session
// cache, no critical section, speed-weighted routing — on a pooled
// reqState carrying the xreq back-reference.
func (xr *xreq) doArrive() {
	d := xr.dst
	r := d.getReq()
	r.xr = xr
	r.cls = xr.cls
	r.d = xr.d
	r.arrival = d.eng.Now()
	r.srv = d.pickServerOpen()
	r.app = d.apps[r.srv]
	if d.router != nil {
		// Service-side accounting begins at hop arrival, on the serving
		// pool's shard — the router's threading contract.
		d.router.Started(int(d.poolID), xr.cls)
	}
	r.app.slots.Acquire(0, r.onSlot)
}

// doReturn runs back on the origin shard when the response hop lands:
// record the end-to-end response time (two hops plus remote service)
// and put the client back into its think loop.
func (xr *xreq) doReturn() {
	s := xr.s
	rt := s.eng.Now() - xr.arrival
	if s.measuring {
		xr.acc.record(rt)
	}
	c := xr.c
	s.eng.Schedule(s.thinkDelay(c), c.issue)
	s.putXreq(xr)
}

// shardedSim is a fleet of pool simulators under one coordinator.
type shardedSim struct {
	cfg   Config
	coord *sim.Coordinator
	pools []*simulator
}

// newShardedSim builds the coordinator, the per-pool simulators on
// their shard engines, and the cross-pool links.
func newShardedSim(cfg Config) (*shardedSim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nPools := cfg.effectivePools()
	nShards := cfg.effectiveShards()
	latency := cfg.ShardLatency
	if latency == 0 {
		latency = DefaultShardLatency
	}
	// With no cross-pool traffic and no barrier consumer the pools never
	// interact: an infinite lookahead collapses the run into one
	// barrier-free window. A router can send to any sibling at any time,
	// and a barrier hook needs barriers to fire on, so either forces the
	// conservative windowed mode.
	lookahead := math.Inf(1)
	if cfg.RemoteFraction > 0 || cfg.Router != nil || cfg.BarrierHook != nil {
		lookahead = latency
	}
	coord := sim.NewCoordinator(nShards, lookahead)
	if cfg.BarrierHook != nil {
		coord.SetBarrierHook(cfg.BarrierHook)
	}
	root := sim.NewStream(cfg.Seed)
	ss := &shardedSim{cfg: cfg, coord: coord, pools: make([]*simulator, nPools)}
	for i := 0; i < nPools; i++ {
		pcfg := cfg
		if len(cfg.PoolArchs) > 0 {
			// Heterogeneous fleet: the pool's single-server tier is its
			// assigned architecture.
			pcfg.Server = cfg.PoolArchs[i%len(cfg.PoolArchs)]
			pcfg.Servers = nil
		}
		p, err := newSimulator(pcfg, simOptions{
			shard:   coord.Shard(i % nShards),
			root:    root.Split(uint64(i)),
			poolID:  uint64(i),
			latency: latency,
		})
		if err != nil {
			coord.Close()
			return nil, err
		}
		ss.pools[i] = p
	}
	for _, p := range ss.pools {
		p.pools = ss.pools
	}
	return ss, nil
}

// ShardedRun is the stepped interface to a sharded fleet run: build
// once, advance the coordinator in caller-chosen strides, switch
// measurement on at the warm-up boundary, and collect the merged fleet
// result at the end. Run drives the whole lifecycle itself; the fleet
// layer (internal/fleet) steps the run so its barrier hook can replan
// in-loop while the caller still owns the clock.
type ShardedRun struct {
	ss     *shardedSim
	closed bool
}

// NewSharded builds a sharded fleet run without advancing it. The
// configuration must select the sharded model (Pools or Shards > 1).
func NewSharded(cfg Config) (*ShardedRun, error) {
	if !cfg.sharded() {
		return nil, fmt.Errorf("trade: NewSharded needs a sharded configuration (Pools or Shards > 1)")
	}
	ss, err := newShardedSim(cfg)
	if err != nil {
		return nil, err
	}
	return &ShardedRun{ss: ss}, nil
}

// Advance runs the fleet to simulated time until (monotone across
// calls) and returns the events fired by this stride.
func (r *ShardedRun) Advance(until float64) uint64 { return r.ss.coord.Run(until) }

// Now returns the fleet clock.
func (r *ShardedRun) Now() float64 { return r.ss.coord.Now() }

// BeginMeasurement discards everything observed so far and starts the
// measured window. Call it exactly once, at the configured WarmUp
// boundary: Collect divides by Config.Duration, so the measured window
// must span exactly that long.
func (r *ShardedRun) BeginMeasurement() {
	for _, p := range r.ss.pools {
		p.resetStats()
		p.measuring = true
	}
}

// Collect merges the fleet's measurements into one Result. The run can
// still be advanced afterwards, but the statistics keep accumulating.
func (r *ShardedRun) Collect() *Result { return r.ss.collect() }

// Close releases the coordinator's worker pool. The run must not be
// advanced afterwards. Safe to call twice.
func (r *ShardedRun) Close() {
	if !r.closed {
		r.closed = true
		r.ss.coord.Close()
	}
}

// runSharded is Run for sharded configurations: warm the whole fleet
// up, reset statistics at the barrier, measure, merge.
func runSharded(cfg Config) (*Result, error) {
	ss, err := newShardedSim(cfg)
	if err != nil {
		return nil, err
	}
	defer ss.coord.Close()
	ss.coord.Run(cfg.WarmUp)
	for _, p := range ss.pools {
		p.resetStats()
		p.measuring = true
	}
	ss.coord.Run(cfg.WarmUp + cfg.Duration)
	return ss.collect(), nil
}

// collect merges the pools' measurements into one fleet Result:
// Welford accumulators merge exactly, samples concatenate, utilisation
// is speed-weighted across every server in the fleet, and per-server
// rows are namespaced "p<pool>/". Pools are visited in index order so
// every floating-point reduction is deterministic.
func (ss *shardedSim) collect() *Result {
	dur := ss.cfg.Duration
	res := &Result{
		PerClass:    make(map[string]ClassResult),
		Duration:    dur,
		EventsFired: ss.coord.Fired(),
	}
	var speedSum, utilSum, heldSum, queueSum, dbUtilSum float64
	var hits, misses uint64
	for pi, p := range ss.pools {
		for _, app := range p.apps {
			u := app.cpu.Utilization()
			res.PerServer = append(res.PerServer, ServerResult{
				Name:          fmt.Sprintf("p%d/%s", pi, app.arch.Name),
				Utilization:   u,
				MeanSlotsHeld: app.slots.MeanHeld(),
				Completed:     int(app.completed),
				Throughput:    float64(app.completed) / dur,
			})
			speedSum += app.arch.Speed
			utilSum += u * app.arch.Speed
			heldSum += app.slots.MeanHeld()
			queueSum += app.slots.MeanQueued()
			if app.cache != nil {
				hits += app.cache.hits
				misses += app.cache.misses
			}
		}
		dbUtilSum += p.dbCPU.Utilization()
	}
	if speedSum > 0 {
		res.AppUtilization = utilSum / speedSum
	}
	res.MeanAppSlotsHeld = heldSum
	res.MeanAppQueue = queueSum
	res.DBUtilization = dbUtilSum / float64(len(ss.pools))
	if hits+misses > 0 {
		res.CacheMissRate = float64(misses) / float64(hits+misses)
	}
	// Classes: every pool registers the same class set, so merge by the
	// first pool's sorted names.
	var totalWeighted float64
	totalCompleted := 0
	for _, name := range ss.pools[0].classNames {
		var merged stats.Accumulator
		var samples []float64
		for _, p := range ss.pools {
			acc := p.acc[name]
			merged.Merge(&acc.rt)
			samples = append(samples, acc.samples...)
		}
		cr := ClassResult{
			Class:      name,
			Completed:  merged.Count(),
			MeanRT:     merged.Mean(),
			RTStdDev:   merged.StdDev(),
			Throughput: float64(merged.Count()) / dur,
			Samples:    samples,
		}
		res.PerClass[name] = cr
		totalWeighted += cr.MeanRT * float64(cr.Completed)
		totalCompleted += cr.Completed
	}
	if totalCompleted > 0 {
		res.MeanRT = totalWeighted / float64(totalCompleted)
	}
	res.Throughput = float64(totalCompleted) / dur
	for _, p := range ss.pools {
		var poolCompleted int
		for _, name := range p.classNames {
			poolCompleted += p.acc[name].rt.Count()
		}
		p.flushMetrics(poolCompleted)
	}
	return res
}
