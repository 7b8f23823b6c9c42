package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"perfpred/internal/hybrid"
	"perfpred/internal/serve"
	"perfpred/internal/trade"
	"perfpred/internal/workload"
)

// coldSize sizes serve-cold.
type coldSize struct {
	// keys distinct keys are one pass's fixed work, and every
	// secondsPerPass of -seconds buy one pass on a fresh service.
	keys, secondsPerPass int
	// replay is how many of the keys the traced run rebuilds offline.
	replay int
}

var defaultColdSize = coldSize{keys: 240, secondsPerPass: 3, replay: 24}

// coldSetups is how many services each pass starts: the pass runs on
// the last one, and setup_s is the median over all of them, since one
// set-up is short (mostly the warm-up key's build) and noisy.
const coldSetups = 3

// coldBuyTenths is the buy-mix range keys are drawn from, in 0.1%
// steps: 0.0% to 98.9%. The set-up's warm-up key sits outside it.
const coldBuyTenths = 990

var coldWarmupKey = serve.PredictRequest{Arch: "AppServF", Clients: 1000, BuyPct: 99.5}

// coldKey is one distinct (architecture, buy mix) model key.
type coldKey struct {
	arch  workload.ServerArch
	tenth int // buy percentage × 10
	body  []byte
}

func (k coldKey) buyPct() float64 { return float64(k.tenth) / 10 }

// genCold draws n distinct keys, the same number per architecture,
// each architecture's buy mixes stratified over the range so every
// seed's list has the same spread of build costs, then shuffled.
func genCold(seed int64, n int) ([]coldKey, error) {
	archs := workload.CaseStudyServers()
	perArch := (n + len(archs) - 1) / len(archs)
	if perArch > coldBuyTenths {
		return nil, fmt.Errorf("%d keys exceed the %d distinct keys available", n, coldBuyTenths*len(archs))
	}
	rng := rand.New(rand.NewSource(seed))
	var keys []coldKey
	for _, a := range archs {
		for s := 0; s < perArch; s++ {
			lo, hi := s*coldBuyTenths/perArch, (s+1)*coldBuyTenths/perArch
			keys = append(keys, coldKey{arch: a, tenth: lo + rng.Intn(hi-lo)})
		}
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	keys = keys[:n]
	for i := range keys {
		b, err := json.Marshal(serve.PredictRequest{Arch: keys[i].arch.Name, Clients: float64(kneeOf(keys[i].arch)), BuyPct: keys[i].buyPct()})
		if err != nil {
			return nil, err
		}
		keys[i].body = b
	}
	return keys, nil
}

// coldResult is one pass over the key list.
type coldResult struct {
	wall     time.Duration
	lats     []float64 // ms, per key answered
	builds   []float64 // ms, the service's own build_ms
	failed   int64
	failures []string
}

// coldPass sends every key once from one closed-loop caller per core;
// callers take the next unsent key.
func coldPass(f *fixture, keys []coldKey, tr *tracer) *coldResult {
	callers := runtime.NumCPU()
	type part struct {
		lats, builds []float64
		failed       int64
		failures     []string
	}
	parts := make([]part, callers)
	var next atomic.Int64
	runtime.GC() // as in warmPass
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := &parts[c]
			for {
				i := int(next.Add(1)) - 1
				if i >= len(keys) {
					return
				}
				sp := tr.start("serve.client", 0, int64(i+1))
				t0 := time.Now()
				rp := f.post("/v1/predict", keys[i].body, sp)
				lat := time.Since(t0)
				sp.end()
				build, err := checkColdReply(rp, true)
				if err != nil {
					p.failed++
					if len(p.failures) < 8 {
						p.failures = append(p.failures, fmt.Sprintf("key %s: %v", keys[i].body, err))
					}
					continue
				}
				p.lats = append(p.lats, millis(lat))
				p.builds = append(p.builds, build)
			}
		}(c)
	}
	wg.Wait()
	res := &coldResult{wall: time.Since(start)}
	for _, p := range parts {
		res.lats = append(res.lats, p.lats...)
		res.builds = append(res.builds, p.builds...)
		res.failed += p.failed
		res.failures = append(res.failures, p.failures...)
	}
	return res
}

// checkRepeats asks every key again after a pass: each key must have
// answered cold exactly once, so every repeat must be warm.
func (c *coldResult) checkRepeats(f *fixture, keys []coldKey) {
	for i := range keys {
		if _, err := checkColdReply(f.post("/v1/predict", keys[i].body, openSpan{}), false); err != nil {
			c.failed++
			c.failures = append(c.failures, fmt.Sprintf("repeat of key %s: %v", keys[i].body, err))
		}
	}
}

// checkColdReply validates a serve-cold reply: status 200, a decodable
// body with a finite positive prediction, and the cold flag the key's
// first (wantCold) or repeated request must carry. It returns the
// service's build_ms.
func checkColdReply(rp reply, wantCold bool) (float64, error) {
	if rp.err != nil {
		return 0, rp.err
	}
	if rp.code != http.StatusOK {
		return 0, fmt.Errorf("status %d: %.120s", rp.code, rp.body)
	}
	var resp serve.PredictResponse
	if err := json.Unmarshal(rp.body, &resp); err != nil {
		return 0, fmt.Errorf("undecodable %d-byte body: %v", len(rp.body), err)
	}
	if !finitePositive(resp.ResponseTimeS) {
		return 0, fmt.Errorf("response time %v", resp.ResponseTimeS)
	}
	if resp.Cold != wantCold {
		return 0, fmt.Errorf("cold=%v, want %v", resp.Cold, wantCold)
	}
	if wantCold && !finitePositive(resp.BuildMS) {
		return 0, fmt.Errorf("cold answer with build_ms %v", resp.BuildMS)
	}
	return resp.BuildMS, nil
}

func (c *coldResult) record(r *runner, keys int) {
	r.ops(int64(keys), c.failed)
	for _, f := range c.failures {
		r.fail("serve-cold: %s", f)
	}
}

// startCold starts a service and builds one key outside the list, so
// the first timed key does not also pay for connection set-up and
// first-use costs. It returns the set-up time.
func startCold() (*fixture, float64, error) {
	t0 := time.Now()
	f, err := startFixture(nil)
	if err != nil {
		return nil, 0, err
	}
	body, err := json.Marshal(coldWarmupKey)
	if err != nil {
		f.close()
		return nil, 0, err
	}
	if _, err := checkColdReply(f.post("/v1/predict", body, openSpan{}), true); err != nil {
		f.close()
		return nil, 0, fmt.Errorf("warm-up key: %w", err)
	}
	return f, seconds(time.Since(t0)), nil
}

func runServeCold(r *runner, size coldSize) error {
	keys, err := genCold(r.opt.seed, size.keys)
	if err != nil {
		return err
	}
	passes := max(1, r.opt.seconds/size.secondsPerPass)
	if r.opt.trace {
		passes = 1
	}
	r.logf("serve-cold: %d passes of %d keys, %d callers", passes, len(keys), runtime.NumCPU())
	var setups, rates, p50s, p95s, rss []float64
	var plain *coldResult
	for i := 0; i < passes; i++ {
		var f *fixture
		for j := 0; j < coldSetups; j++ {
			if f != nil {
				f.close()
			}
			var s float64
			if f, s, err = startCold(); err != nil {
				return err
			}
			setups = append(setups, s)
		}
		resetPeakRSS()
		plain = coldPass(f, keys, nil)
		plain.checkRepeats(f, keys)
		f.close()
		plain.record(r, len(keys))
		rates = append(rates, float64(len(plain.lats))/seconds(plain.wall))
		p50s = append(p50s, quantile(plain.lats, 0.5))
		p95s = append(p95s, quantile(plain.lats, 0.95))
		rss = append(rss, peakRSSMB())
		r.logf("serve-cold: pass %d: %.1f builds/s, p50 %.1f ms, p95 %.1f ms", i, rates[i], p50s[i], p95s[i])
	}
	if !r.opt.trace {
		r.set("setup_s", median(setups))
		r.set("throughput_per_s", median(rates))
		r.set("p50_ms", median(p50s))
		r.set("peak_rss_mb", median(rss))
		n := len(keys) * passes
		r.name("cold_builds_per_s", median(rates), "1/s", n, fmt.Sprintf("throughput_per_s (median of %d passes)", passes))
		r.name("cold_p50_ms", median(p50s), "ms", n, "p50_ms (median of pass medians)")
		r.name("cold_p95_ms", median(p95s), "ms", n, "median of pass p95s")
		return nil
	}

	f, _, err := startCold()
	if err != nil {
		return err
	}
	f.tr.Store(r.tr)
	var traced *coldResult
	snap := withObs(func() { traced = coldPass(f, keys, r.tr) })
	f.tr.Store(nil)
	traced.checkRepeats(f, keys)
	f.close()
	traced.record(r, len(keys))
	r.set("trace_overhead_pct", 100*(1-seconds(plain.wall)/seconds(traced.wall)))

	waits := make([]float64, len(traced.lats))
	for i := range traced.lats {
		waits[i] = traced.lats[i] - traced.builds[i]
	}
	builds := float64(snap.Counters["serve_builds"])
	r.set("serve.build_ms_p50", median(traced.builds))
	r.set("serve.build_wait_ms_p50", median(waits))
	r.set("serve.rejected_overload", float64(snap.Counters["serve_rejected_overload"]))
	r.set("serve.build_queue_high_water", float64(snap.MaxGauges["serve_build_queue_high_water"]))
	hits, misses := float64(snap.Counters["serve_cache_hits"]), float64(snap.Counters["serve_cache_misses"])
	r.set("serve.cache_hit_ratio", ratio(hits, hits+misses))
	for _, ph := range []string{"pseudodata", "maxthroughput", "gradient", "calibrate"} {
		r.set("hybrid.phase_"+ph+"_ms", 1e3*histMean(snap, "hybrid_phase_"+ph+"_seconds"))
	}
	r.set("lqn.solves", float64(snap.Counters["lqn_solver_solves"]))
	r.set("lqn.solves_per_build", ratio(float64(snap.Counters["lqn_solver_solves"]), builds))
	r.set("lqn.mva_iterations_per_solve", ratio(float64(snap.Counters["lqn_solver_mva_iterations"]), float64(snap.Counters["lqn_solver_solves"])))
	r.set("sim.events_per_build", ratio(float64(snap.Counters["sim_events_fired"]), builds))
	setReuse(r, snap.Counters)
	if err := replayCold(r, keys[:min(size.replay, len(keys))]); err != nil {
		return err
	}
	r.finishTrace()
	return nil
}

// setReuse sets the event and request-pool reuse ratios from obs
// counters.
func setReuse(r *runner, c map[string]uint64) {
	r.set("sim.event_reuse_ratio", ratio(float64(c["sim_event_reuses"]), float64(c["sim_event_reuses"]+c["sim_event_allocs"])))
	r.set("trade.request_pool_reuse_ratio", ratio(float64(c["trade_request_pool_reuses"]), float64(c["trade_request_pool_reuses"]+c["trade_request_pool_allocs"])))
}

// replayCold rebuilds keys offline the way the service's cold path
// does: hybrid.BuildServerMix, then the fixed-seed calibration
// trade.Run at 1.4× the model's saturation population.
func replayCold(r *runner, keys []coldKey) error {
	cfg := serviceConfig()
	var mix, calib []float64
	for _, k := range keys {
		sp := r.tr.start("hybrid.build_server_mix", 0, 0)
		sm, _, err := hybrid.BuildServerMix(hybrid.Config{DB: cfg.DB, Demands: cfg.Demands, LQN: cfg.LQN}, k.arch, k.buyPct()/100)
		mix = append(mix, millis(sp.end()))
		if err != nil {
			return fmt.Errorf("replay build %s: %w", k.body, err)
		}
		n := max(1, int(1.4*sm.SaturationClients()))
		load := workload.TypicalWorkload(n)
		if k.tenth > 0 {
			load = workload.MixedWorkload(n, k.buyPct()/100)
		}
		sp = r.tr.start("trade.calibration_run", 0, 0)
		res, err := trade.Run(trade.Config{
			Server: k.arch, DB: cfg.DB, Demands: cfg.Demands, Load: load,
			Seed: 1, WarmUp: 10, Duration: 40,
		})
		calib = append(calib, millis(sp.end()))
		if err != nil {
			return fmt.Errorf("replay calibration %s: %w", k.body, err)
		}
		if !finitePositive(res.MeanRT) {
			return fmt.Errorf("replay calibration %s: mean response time %v", k.body, res.MeanRT)
		}
	}
	r.set("hybrid.build_server_mix_ms", median(mix))
	r.set("trade.calibration_run_ms", median(calib))
	return nil
}
