package serve

import (
	"context"
	"sort"
	"sync/atomic"
	"time"

	"perfpred/internal/hist"
	"perfpred/internal/hybrid"
	"perfpred/internal/parallel"
	"perfpred/internal/regress"
	"perfpred/internal/rtdist"
	"perfpred/internal/trade"
	"perfpred/internal/workload"
)

// modelKey identifies one cached predictor: an architecture under a
// buy mix. The mix is quantised to 0.1% so float jitter in request
// payloads cannot mint unbounded distinct keys.
type modelKey struct {
	arch        string
	buyPctTenth int // buy percentage × 10, i.e. 125 = 12.5%
}

func makeKey(arch string, buyPct float64) modelKey {
	return modelKey{arch: arch, buyPctTenth: int(buyPct*10 + 0.5)}
}

// buyFrac converts the quantised mix back to the fraction the builders
// consume.
func (k modelKey) buyFrac() float64 { return float64(k.buyPctTenth) / 1000 }

// modelEntry is one cached per-(architecture, mix) predictor: the
// hybrid-calibrated historical model, the Laplace scale its percentile
// predictions use, and the layered solves its build took.
type modelEntry struct {
	sm *hist.ServerModel
	// laplaceB is the §7.1 post-saturation Laplace scale, either the
	// configured constant or calibrated from a fixed-seed simulator run
	// during the build.
	laplaceB float64
	// evals counts layered-solver runs spent on the build.
	evals int
}

// built is a memoised model with its build's wall-clock cost (the §8.5
// start-up delay the model amortises across warm predictions).
type built[E any] struct {
	entry E
	wall  time.Duration
}

// tier is one predictor tier's per-(architecture, mix) model cache: a
// parallel.Memo bounded to Config.CacheCapacity models — its
// singleflight collapses a thundering herd of cold requests for one key
// into exactly one build, and its LRU bound evicts idle models so the
// next request for them rebuilds — plus build admission control: at
// most cap(sem) builds run concurrently, at most maxWait more may
// wait for a slot, and anything beyond that is rejected with
// ErrOverloaded so a cold-key flood degrades to fast 429s instead of a
// convoy of queued solves.
type tier[E any] struct {
	models parallel.Memo[modelKey, built[E]]
	build  func(modelKey) (E, error)

	sem     chan struct{}
	queued  atomic.Int64
	maxWait int64 // queued builds allowed beyond the worker slots
}

func newTier[E any](capacity, workers, maxQueued int, build func(modelKey) (E, error)) *tier[E] {
	t := &tier[E]{
		build:   build,
		sem:     make(chan struct{}, workers),
		maxWait: int64(maxQueued),
	}
	t.models.Capacity = capacity
	t.models.OnEvict = func(modelKey, built[E]) { metrics.Load().cacheEvicts.Inc() }
	return t
}

// get returns the model for key, building it on a miss. cold reports
// whether this request waited on a build (shared or its own), and wall
// is that build's cost. The error is ErrOverloaded when the build queue
// is full and ctx.Err() when the caller's deadline expired first.
func (t *tier[E]) get(ctx context.Context, key modelKey) (e E, wall time.Duration, cold bool, err error) {
	m := metrics.Load()
	b, hit, err := t.models.DoCtx(ctx, key, func() (built[E], error) { return t.admitBuild(ctx, key) })
	if hit {
		m.cacheHits.Inc()
		return b.entry, 0, false, nil
	}
	m.cacheMisses.Inc()
	return b.entry, b.wall, true, err
}

// admitBuild is the flight leader's build under admission control.
func (t *tier[E]) admitBuild(ctx context.Context, key modelKey) (built[E], error) {
	if err := t.acquireBuildSlot(ctx); err != nil {
		return built[E]{}, err
	}
	defer func() { <-t.sem }()
	start := time.Now()
	entry, err := t.build(key)
	if err != nil {
		return built[E]{}, err
	}
	wall := time.Since(start)
	m := metrics.Load()
	m.builds.Inc()
	m.buildSeconds.Observe(wall.Seconds())
	return built[E]{entry: entry, wall: wall}, nil
}

// acquireBuildSlot admits the flight leader to a build worker slot,
// rejecting immediately when the queue is full and abandoning the wait
// when the leader's own deadline expires.
func (t *tier[E]) acquireBuildSlot(ctx context.Context) error {
	m := metrics.Load()
	q := t.queued.Add(1)
	m.buildQueueDepth.Set(q)
	m.buildQueueHigh.Observe(q)
	defer func() { m.buildQueueDepth.Set(t.queued.Add(-1)) }()
	if q > int64(cap(t.sem))+t.maxWait {
		m.rejectedOverload.Inc()
		return ErrOverloaded
	}
	select {
	case t.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// buildEntry is the Service's cold path: generate the hybrid model for
// the key's (architecture, mix) from warm-started layered solves, then
// fix the percentile scale — either the configured constant or a
// calibration against a fixed-seed simulator run at a saturated
// population under the same mix, the §7.1 procedure the offline suite
// uses.
func (s *Service) buildEntry(key modelKey) (*modelEntry, error) {
	arch, ok := s.archs[key.arch]
	if !ok {
		return nil, &badRequestError{msg: "unknown architecture " + key.arch}
	}
	cfg := hybrid.Config{
		DB:                s.cfg.DB,
		Demands:           s.cfg.Demands,
		PointsPerEquation: s.cfg.PointsPerEquation,
		LQN:               s.cfg.LQN,
	}
	sm, evals, err := hybrid.BuildServerMix(cfg, arch, key.buyFrac())
	if err != nil {
		return nil, err
	}
	e := &modelEntry{sm: sm, laplaceB: s.cfg.LaplaceB, evals: evals}
	if e.laplaceB == 0 {
		b, err := s.calibrateScale(arch, key.buyFrac(), sm)
		if err != nil {
			return nil, err
		}
		e.laplaceB = b
	}
	return e, nil
}

// buildRegressModel is the cheap tier's cold path: train a black-box
// regression model for the key's (architecture, mix) from a handful of
// short seeded simulator runs. No layered solves, no calibration run —
// the start-up cost the four-family comparison shows is a fraction of
// hybrid's, traded against polynomial rather than model-based
// accuracy. The training seed is fixed by configuration, so equal keys
// always serve bit-identical fits.
func (s *Service) buildRegressModel(key modelKey) (*regress.Model, error) {
	arch, ok := s.archs[key.arch]
	if !ok {
		return nil, &badRequestError{msg: "unknown architecture " + key.arch}
	}
	return regress.Train(regress.TrainConfig{
		Archs:         []workload.ServerArch{arch},
		BuyFracs:      []float64{key.buyFrac()},
		SamplesPerMix: s.cfg.RegressTrainSamples,
		Seed:          s.cfg.CalibrationSeed,
		Opt: trade.MeasureOptions{
			WarmUp:   s.cfg.RegressSimSeconds / 4,
			Duration: s.cfg.RegressSimSeconds,
		},
		Fit: regress.FitConfig{Degree: s.cfg.RegressDegree},
	})
}

// calibrateScale runs the simulator at ~1.4× the model's saturation
// population under the key's mix and fits the Laplace scale to the
// measured response-time samples around their mean. The seed and
// window are fixed by configuration, so the same key always calibrates
// the same scale — served numbers stay reproducible.
func (s *Service) calibrateScale(arch workload.ServerArch, buyFrac float64, sm *hist.ServerModel) (float64, error) {
	n := int(1.4 * sm.SaturationClients())
	if n < 1 {
		n = 1
	}
	load := workload.TypicalWorkload(n)
	if buyFrac > 0 {
		load = workload.MixedWorkload(n, buyFrac)
	}
	res, err := trade.Run(trade.Config{
		Server:   arch,
		DB:       s.cfg.DB,
		Demands:  s.cfg.Demands,
		Load:     load,
		Seed:     s.cfg.CalibrationSeed,
		WarmUp:   s.cfg.CalibrationSimSeconds / 4,
		Duration: s.cfg.CalibrationSimSeconds,
	})
	if err != nil {
		return 0, err
	}
	// Merge per-class samples in sorted class order: CalibrateScale
	// sums deviations in sample order, and float addition is not
	// associative, so map-iteration order would perturb the last few
	// digits of b between otherwise-identical builds.
	names := make([]string, 0, len(res.PerClass))
	for name := range res.PerClass {
		names = append(names, name)
	}
	sort.Strings(names)
	var samples []float64
	for _, name := range names {
		samples = append(samples, res.PerClass[name].Samples...)
	}
	return rtdist.CalibrateScale(samples, res.MeanRT)
}
