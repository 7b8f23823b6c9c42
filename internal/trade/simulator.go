package trade

import (
	"math"
	"sort"

	"perfpred/internal/scenario"
	"perfpred/internal/sim"
	"perfpred/internal/stats"
	"perfpred/internal/workload"
)

// appServer is one member of the application tier: a servlet thread
// pool, a time-shared CPU and (in the §7.2 variant) a session cache in
// its own main memory.
type appServer struct {
	arch      workload.ServerArch
	slots     *sim.Semaphore
	cpu       *sim.Station
	cache     *lruCache
	csLock    *sim.Semaphore // §8.1 critical-section mutex (nil unless enabled)
	completed uint64
}

// simulator wires the application-server tier and the database server
// into a closed multi-class network and drives the client populations.
// The workload-manager routing of the paper's §2 decides which server
// each request visits; the database server keeps one FIFO queue per
// application server (sim.PerSourceFIFO keyed by server index).
//
// All per-request state is pooled: clients live in one slice, request
// lifecycles in a free list of reqStates, and the per-class mixes are
// pre-resolved into typeSamplers — the steady-state request loop
// performs no heap allocation.
type simulator struct {
	cfg  Config
	eng  *sim.Engine
	apps []*appServer

	dbSlots *sim.Semaphore // db agent pool, per-app-server FIFO
	dbCPU   *sim.Station   // time-shared db CPU/disk

	think  *sim.Stream
	serve  *sim.Stream
	choose *sim.Stream
	route  *sim.Stream
	remote *sim.Stream // cross-pool decisions; non-nil only in sharded runs with RemoteFraction > 0

	// Sharded-fleet wiring (nil/zero on the legacy single-engine path):
	// the pool's shard, its stable pool index, references to sibling
	// pools, the resolved hop latency and a free list of cross-pool
	// request records.
	shard    *sim.Shard
	poolID   uint64
	pools    []*simulator
	xLatency float64
	sendSeq  uint64
	xFree    *xreq
	router   PoolRouter // per-request routing hook (nil = static assignment)

	rrNext        int
	stickyWeights []float64 // server speeds, hoisted for assignSticky
	sessionBytes  []int64   // per-client session size (cache variant)

	clients  []client     // closed clients, pooled in one slice
	sessions []buySession // detailed buy sessions, pooled in one slice
	reqFree  *reqState    // retired request records for reuse

	// Plain instrumentation counters (a simulator is single-goroutine);
	// flushMetrics publishes them to the process-wide atomics at collect.
	poolReuses, poolAllocs uint64

	measuring   bool
	measuredDur float64 // actual measurement window (adaptive runs); 0 = cfg.Duration
	acc         map[string]*classAcc
	classNames  []string // sorted class names for deterministic collection
	overall     *stats.StreamingQuantiles
	ops         *opAccumulators

	// intercept, when set, receives every completion (simulated time,
	// response time) from t=0 instead of the measuring-gated class
	// accumulators — the transient study's hook.
	intercept func(now, rt float64)

	// Hoisted detailed-operation tables (§3.1), resolved once per run.
	browseOps                   []Operation
	browseWeights               []float64
	opRegister, opBuy, opLogoff Operation
}

// simOptions selects constructor variants shared by the steady-state
// and transient entry points.
type simOptions struct {
	// skipOpen leaves open populations idle — the transient study
	// covers the closed populations.
	skipOpen bool
	// intercept routes every completion to the caller from t=0.
	intercept func(now, rt float64)

	// Sharded-fleet construction (set by newShardedSim): build the pool
	// on an existing shard engine with a pool-split root stream instead
	// of a private heap engine seeded directly from cfg.Seed.
	shard   *sim.Shard
	root    *sim.Stream
	poolID  uint64
	latency float64
}

type classAcc struct {
	rt        stats.Accumulator
	samples   []float64
	seen      int
	maxSample int
	rng       *sim.Stream               // reservoir sampling stream
	quant     *stats.StreamingQuantiles // non-nil in streaming mode
}

func (a *classAcc) record(rt float64) {
	a.rt.Add(rt)
	if a.quant != nil {
		a.quant.Add(rt)
		return
	}
	a.seen++
	if a.seen <= a.maxSample {
		// Filling phase: every observation is retained, so quantiles
		// over the buffer are exact — no replacement draws are made and
		// the buffer is an unbiased (indeed complete) sample.
		a.samples = append(a.samples, rt)
		return
	}
	// Reservoir sampling (Algorithm R): observation number `seen`
	// replaces a uniformly random slot with probability
	// maxSample/seen, keeping every prefix a uniform sample.
	if idx := a.rng.Intn(a.seen); idx < a.maxSample {
		a.samples[idx] = rt
	}
}

// client is one closed-loop request generator. home is the application
// server a sticky workload manager assigned it to (-1 when requests
// are routed dynamically).
type client struct {
	id       int
	class    workload.ServiceClass
	classIdx int // index of the client's population in Config.Load (routing key)
	home     int
	session  *buySession // non-nil for detailed buy clients

	detailBrowse bool           // detailed-operations browse client
	sampler      *typeSampler   // the class's resolved request-type mix
	acc          *classAcc      // the class's response-time accumulator
	think        *scenario.Dist // scenario think-time distribution (nil = legacy exponential)
	issue        func()         // bound once: begin the next request
}

// thinkDelay draws the client's next think time: the scenario
// cohort's declared distribution when one is attached, the legacy
// exponential otherwise. Both draw from the simulator's think stream,
// and a scenario cohort declaring an exponential think makes the
// exact draw the legacy path would, so the two modes stay comparable
// seed-for-seed.
func (s *simulator) thinkDelay(c *client) float64 {
	if c.think != nil {
		return c.think.Sample(s.think)
	}
	return s.think.Exp(c.class.ThinkTimeMean)
}

// buySession tracks a detailed buy client's place in its
// register → buys → logoff cycle and its growing portfolio (§3.1).
type buySession struct {
	phase    int // 0 register, 1 buying, 2 logoff
	buysLeft int
	holdings int
}

// Run simulates the configured measurement and returns its result.
func Run(cfg Config) (*Result, error) {
	if cfg.sharded() {
		return runSharded(cfg)
	}
	s, err := newSimulator(cfg, simOptions{})
	if err != nil {
		return nil, err
	}
	// Warm up, reset statistics, then measure.
	s.eng.Run(s.cfg.WarmUp, 0)
	s.resetStats()
	s.measuring = true
	s.eng.Run(s.cfg.WarmUp+s.cfg.Duration, 0)
	return s.collect(), nil
}

// newSimulator builds the network, registers every population and
// schedules the initial arrivals. Both Run and TransientCurve use it,
// so transient studies honour the full Config (caches, critical
// sections, multi-server tiers) with the same per-seed draw sequences.
func newSimulator(cfg Config, opt simOptions) (*simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxRTSamples == 0 {
		cfg.MaxRTSamples = DefaultMaxRTSamples
	}
	// A scenario supplies the workload: materialise it into the local
	// config copy so population bookkeeping (accumulators, routers,
	// collection) works unchanged, and keep the cohorts aligned with the
	// derived Load for the scenario-specific registration below.
	var cohorts []*scenario.Cohort
	if cfg.Scenario != nil {
		cfg.Load = cfg.Scenario.Workload()
		cohorts = cfg.Scenario.Cohorts
	}
	eng := sim.NewEngine()
	root := sim.NewStream(cfg.Seed)
	if opt.shard != nil {
		// Sharded pool: run on the shard's engine with a root
		// stream split by stable pool index, so the pool's entire draw
		// sequence is a pure function of (Seed, pool) — invariant under
		// the pool→shard mapping.
		eng = opt.shard.Eng
		root = opt.root
	}
	s := &simulator{
		cfg:       cfg,
		eng:       eng,
		dbSlots:   sim.NewSemaphore(eng, cfg.DB.Name+"/agents", cfg.DB.MPL, sim.PerSourceFIFO),
		dbCPU:     sim.NewStation(eng, cfg.DB.Name+"/cpu", cfg.DB.Speed, 0, sim.GlobalFIFO),
		think:     root.Derive(1),
		serve:     root.Derive(2),
		choose:    root.Derive(3),
		route:     root.Derive(5),
		acc:       make(map[string]*classAcc),
		intercept: opt.intercept,
	}
	for _, arch := range cfg.tier() {
		app := &appServer{
			arch:  arch,
			slots: sim.NewSemaphore(eng, arch.Name+"/threads", arch.MPL, sim.GlobalFIFO),
			cpu:   sim.NewStation(eng, arch.Name+"/cpu", arch.Speed, 0, sim.GlobalFIFO),
		}
		if cfg.Cache != nil {
			app.cache = newLRUCache(cfg.Cache.SizeBytes)
		}
		if cfg.CriticalSection != nil {
			app.csLock = sim.NewSemaphore(eng, arch.Name+"/critsec", 1, sim.GlobalFIFO)
		}
		s.apps = append(s.apps, app)
	}
	if len(s.apps) > 1 {
		s.stickyWeights = make([]float64, len(s.apps))
		for i, app := range s.apps {
			s.stickyWeights[i] = app.arch.Speed
		}
	}
	if cfg.StreamingPercentiles {
		s.overall = stats.NewStreamingQuantiles(cfg.StreamQuantiles)
	}
	if cfg.DetailedOperations {
		s.ops = newOpAccumulators(cfg.MaxRTSamples, root.Derive(7), cfg.StreamingPercentiles, cfg.StreamQuantiles)
		s.browseOps = BrowseOperations()
		s.browseWeights = make([]float64, len(s.browseOps))
		for i, op := range s.browseOps {
			s.browseWeights[i] = op.Weight
		}
		s.opRegister, s.opBuy, s.opLogoff = BuySessionOperations()
	}
	sampleRNG := root.Derive(4)
	arrivals := root.Derive(6)

	// Pool the closed clients and detailed buy sessions in single
	// slices before registration, so per-client state never escapes to
	// individual heap objects.
	totalClients, totalSessions := 0, 0
	for _, pop := range cfg.Load {
		if pop.Open() {
			continue
		}
		totalClients += pop.Clients
		if cfg.DetailedOperations && pop.Class.Mix.Fraction(workload.Buy) == 1 {
			totalSessions += pop.Clients
		}
	}
	s.clients = make([]client, totalClients)
	s.sessions = make([]buySession, totalSessions)
	if cfg.Cache != nil {
		s.sessionBytes = make([]int64, totalClients)
	}

	// Registration order, and the draw order within it, exactly match
	// the legacy construction: per closed client a sticky-route draw,
	// a session-size draw (cache variant) and a think-time draw, in
	// population order; open streams draw their first inter-arrival gap
	// in place.
	id, sessID := 0, 0
	for pi, pop := range cfg.Load {
		sampler := newTypeSampler(pop.Class.Mix, cfg.Demands, cfg.CompatTypeChoice)
		s.acc[pop.Class.Name] = &classAcc{maxSample: cfg.MaxRTSamples, rng: sampleRNG.Derive(uint64(len(s.acc)))}
		if cfg.StreamingPercentiles {
			s.acc[pop.Class.Name].quant = stats.NewStreamingQuantiles(cfg.StreamQuantiles)
		}
		if pop.Open() {
			// Open stream: spec-defined generator for scenario cohorts
			// (Poisson, MMPP, trace, with temporal patterns); constant-rate
			// Poisson arrivals (§8.1) otherwise. Either way each arrival is
			// an independent request with no think loop and no session
			// identity.
			if !opt.skipOpen {
				if cohorts != nil {
					s.startScenarioStream(cohorts[pi], pi, sampler, root)
				} else {
					s.startOpenStream(pop, pi, sampler, arrivals.Derive(uint64(len(s.acc))))
				}
			}
			continue
		}
		for i := 0; i < pop.Clients; i++ {
			c := &s.clients[id]
			c.id = id
			c.class = pop.Class
			c.classIdx = pi
			c.home = -1
			c.sampler = sampler
			if cohorts != nil {
				c.think = cohorts[pi].Think
			}
			if cfg.Routing == RouteSticky || cfg.Routing == "" {
				c.home = s.assignSticky()
			}
			if cfg.DetailedOperations {
				if pop.Class.Mix.Fraction(workload.Buy) == 1 {
					c.session = &s.sessions[sessID]
					sessID++
				} else if pop.Class.Mix.Fraction(workload.Browse) == 1 {
					c.detailBrowse = true
				}
			}
			id++
			if s.sessionBytes != nil {
				size := int64(s.serve.Exp(cfg.Cache.SessionBytesMean))
				if size < 1 {
					size = 1
				}
				s.sessionBytes[c.id] = size
			}
			c.issue = func() { s.issueRequest(c) }
			// Stagger initial arrivals across one think time so the
			// run does not start with a synchronized burst.
			eng.Schedule(s.thinkDelay(c), c.issue)
		}
	}
	// Bind accumulators in a second pass: with duplicate class names the
	// last registration wins for every client of that name, matching the
	// legacy record-time map lookup.
	for i := range s.clients {
		s.clients[i].acc = s.acc[s.clients[i].class.Name]
	}
	s.classNames = make([]string, 0, len(s.acc))
	for name := range s.acc {
		s.classNames = append(s.classNames, name)
	}
	sort.Strings(s.classNames)
	if opt.shard != nil {
		s.shard = opt.shard
		s.poolID = opt.poolID
		s.xLatency = opt.latency
		s.router = cfg.Router
		if cfg.RemoteFraction > 0 {
			// Derived last so the pool's other streams keep the same
			// component numbering as the legacy constructor.
			s.remote = root.Derive(8)
		}
	}
	return s, nil
}

// startOpenStream schedules Poisson arrivals for an open population.
// Each arrival routes like a dynamic request (sticky policies fall
// back to speed-weighted random choice — an arrival has no home
// server) and bypasses the session cache, which models per-client
// state that open requests do not carry.
func (s *simulator) startOpenStream(pop workload.Population, classIdx int, sampler *typeSampler, rng *sim.Stream) {
	mean := 1 / pop.ArrivalRate
	name := pop.Class.Name
	var arrive func()
	arrive = func() {
		s.eng.Schedule(rng.Exp(mean), arrive)
		d := sampler.sample(s.choose)
		r := s.getReq()
		r.acc = s.acc[name]
		r.cls = classIdx
		r.d = d
		r.arrival = s.eng.Now()
		r.srv = s.pickServerOpen()
		r.app = s.apps[r.srv]
		if s.router != nil {
			// Open arrivals are never routed across pools, but they do
			// occupy the pool, so the router's in-flight state counts them.
			s.router.Started(int(s.poolID), classIdx)
		}
		r.app.slots.Acquire(0, r.onSlot)
	}
	s.eng.Schedule(rng.Exp(mean), arrive)
}

// pickServerOpen routes an open arrival: dynamic policies apply as-is;
// sticky falls back to speed-weighted random selection.
func (s *simulator) pickServerOpen() int {
	switch s.cfg.Routing {
	case RouteRoundRobin, RouteLeastBusy:
		return s.pickServerFor(0)
	default:
		return s.assignSticky()
	}
}

// assignSticky spreads clients across the tier in proportion to server
// speed, the division a workload manager would make from the speed
// benchmarks.
func (s *simulator) assignSticky() int {
	if len(s.apps) == 1 {
		return 0
	}
	return s.route.Choose(s.stickyWeights)
}

// pickServerFor routes one request per the configured policy, given
// the issuing client's home server.
func (s *simulator) pickServerFor(home int) int {
	switch s.cfg.Routing {
	case RouteRoundRobin:
		i := s.rrNext % len(s.apps)
		s.rrNext++
		return i
	case RouteLeastBusy:
		best, bestLoad := 0, math.MaxInt
		for i, app := range s.apps {
			load := app.slots.Held() + app.slots.Queued()
			if load < bestLoad {
				best, bestLoad = i, load
			}
		}
		return best
	default: // RouteSticky
		return home
	}
}

func (s *simulator) resetStats() {
	for _, app := range s.apps {
		app.cpu.ResetStats()
		app.slots.ResetStats()
		app.completed = 0
		if app.cache != nil {
			app.cache.resetStats()
		}
	}
	s.dbCPU.ResetStats()
	s.dbSlots.ResetStats()
}

// issueRequest begins one request: pick the operation (or coarse
// request type) for this client, route it to an application server,
// queue for a thread, process, respond, then think and repeat. The
// whole lifecycle runs on a pooled reqState — no per-request closures.
func (s *simulator) issueRequest(c *client) {
	if s.router != nil {
		// Per-request fleet routing: the router picks the serving pool;
		// anything but the client's own pool rides the cross-pool hop.
		if dst := s.router.Route(int(s.poolID), c.classIdx); dst != int(s.poolID) {
			s.issueRemoteTo(c, dst)
			return
		}
		s.router.Started(int(s.poolID), c.classIdx)
	} else if s.remote != nil && s.remote.Float64() < s.cfg.RemoteFraction {
		s.issueRemote(c)
		return
	}
	d, opName := s.nextRequest(c)
	r := s.getReq()
	r.c = c
	r.acc = c.acc
	r.cls = c.classIdx
	r.d = d
	r.opName = opName
	r.arrival = s.eng.Now()
	r.srv = s.pickServerFor(c.home)
	r.app = s.apps[r.srv]
	r.app.slots.Acquire(0, r.onSlot)
}

// nextRequest resolves the client's next request to a demand and,
// under DetailedOperations, the Trade operation behind it.
func (s *simulator) nextRequest(c *client) (workload.Demand, string) {
	d := c.sampler.sample(s.choose)
	if !s.cfg.DetailedOperations {
		return d, ""
	}
	if c.session != nil {
		return s.nextBuyOperation(c, d)
	}
	if c.detailBrowse {
		op := s.browseOps[s.choose.Choose(s.browseWeights)]
		return applyOperation(d, op), op.Name
	}
	return d, ""
}

// nextBuyOperation advances the client's buy session: register/login,
// a run of buys with a growing portfolio, then logoff (§3.1).
func (s *simulator) nextBuyOperation(c *client, d workload.Demand) (workload.Demand, string) {
	sess := c.session
	switch sess.phase {
	case 0:
		sess.phase = 1
		sess.buysLeft = workload.BuyRequestsPerSession
		sess.holdings = 0
		return applyOperation(d, s.opRegister), s.opRegister.Name
	case 1:
		scaled := applyOperation(d, s.opBuy)
		scaled.AppServerTime *= portfolioScale(sess.holdings)
		sess.holdings++
		sess.buysLeft--
		if sess.buysLeft == 0 {
			sess.phase = 2
		}
		return scaled, s.opBuy.Name
	default:
		sess.phase = 0
		return applyOperation(d, s.opLogoff), s.opLogoff.Name
	}
}

// applyOperation specialises a request type's demand for one
// operation.
func applyOperation(d workload.Demand, op Operation) workload.Demand {
	out := d
	out.AppServerTime = d.AppServerTime * op.DemandScale
	if op.DBCalls > 0 {
		out.DBCallsPerRequest = op.DBCalls
	}
	return out
}

// sampleCalls draws an integer call count with the given mean:
// floor(mean) plus a Bernoulli trial on the fractional part, the
// standard way to realise the paper's fractional "1.14 database
// requests on average".
func (s *simulator) sampleCalls(mean float64) int {
	if mean <= 0 {
		return 0
	}
	base := int(mean)
	frac := mean - float64(base)
	if frac > 0 && s.serve.Float64() < frac {
		base++
	}
	return base
}

// measuredTotals returns the running response-time sum and completion
// count across classes, in sorted-name order so batch-mean extraction
// is deterministic regardless of map layout.
func (s *simulator) measuredTotals() (sum float64, count int) {
	for _, name := range s.classNames {
		acc := s.acc[name]
		count += acc.rt.Count()
		sum += acc.rt.Sum()
	}
	return sum, count
}

func (s *simulator) collect() *Result {
	dur := s.measuredDur
	if dur == 0 {
		dur = s.cfg.Duration
	}
	res := &Result{
		PerClass: make(map[string]ClassResult, len(s.acc)),
		Duration: dur,
	}
	var speedSum, utilSum, heldSum, queueSum float64
	var hits, misses uint64
	for _, app := range s.apps {
		u := app.cpu.Utilization()
		res.PerServer = append(res.PerServer, ServerResult{
			Name:          app.arch.Name,
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
	// Tier-level utilisation is the speed-weighted mean: the fraction
	// of the tier's total processing capacity in use.
	if speedSum > 0 {
		res.AppUtilization = utilSum / speedSum
	}
	res.MeanAppSlotsHeld = heldSum
	res.MeanAppQueue = queueSum
	res.DBUtilization = s.dbCPU.Utilization()
	if hits+misses > 0 {
		res.CacheMissRate = float64(misses) / float64(hits+misses)
	}
	// Classes are collected in sorted-name order so the weighted mean's
	// floating-point summation is deterministic for any class count.
	var totalWeighted float64
	totalCompleted := 0
	for _, name := range s.classNames {
		acc := s.acc[name]
		cr := ClassResult{
			Class:      name,
			Completed:  acc.rt.Count(),
			MeanRT:     acc.rt.Mean(),
			RTStdDev:   acc.rt.StdDev(),
			Throughput: float64(acc.rt.Count()) / dur,
			Samples:    acc.samples,
			Quantiles:  acc.quant,
		}
		res.PerClass[name] = cr
		totalWeighted += cr.MeanRT * float64(cr.Completed)
		totalCompleted += cr.Completed
	}
	if totalCompleted > 0 {
		res.MeanRT = totalWeighted / float64(totalCompleted)
	}
	res.Throughput = float64(totalCompleted) / dur
	res.OverallQuantiles = s.overall
	if s.ops != nil {
		res.PerOperation = s.ops.results()
	}
	res.EventsFired = s.eng.Fired()
	s.flushMetrics(totalCompleted)
	return res
}
