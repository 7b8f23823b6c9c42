package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"perfpred/internal/hist"
	"perfpred/internal/hybrid"
	"perfpred/internal/lqn"
	"perfpred/internal/serve"
	"perfpred/internal/trade"
	"perfpred/internal/workload"
)

// warmSize sizes serve-warm.
type warmSize struct {
	// requests is the length of the seeded request list the callers
	// cycle through.
	requests int
}

var defaultWarmSize = warmSize{requests: 4096}

// Request kinds of the serve-warm mix.
const (
	kHybrid = iota
	kP90
	kCapacity
	kLQN
	kRegress
	numKinds
)

var kindNames = [numKinds]string{"hybrid", "hybrid_p90", "capacity_lqn", "lqn", "regress"}

// lqnTol is how far a served layered answer may sit from a second
// service's answer to the same query, relative. The solver stops when
// successive response-time iterates move less than 1e-6 s, and a warm
// start moves the iteration path (not the fixed point), so two
// histories can stop on different sides of the fixed point; near the
// knee the iteration contracts slowly and the gap is a multiple of the
// stopping step.
const lqnTol = 1e-4

// warmReq is one request of the seeded list: its kind, endpoint, JSON
// body and decoded form (for direct calls).
type warmReq struct {
	kind int
	path string
	body []byte
	pred serve.PredictRequest
	capr serve.CapacityRequest
}

type warmInputs struct {
	reqs  []warmReq
	goals map[string]float64 // capacity goal per architecture, seconds
}

// kneeOf is the population the request streams centre on: 80% of the
// architecture's typical saturation population, as cmd/predload uses.
func kneeOf(a workload.ServerArch) int {
	return int(a.MaxThroughputTypical * (workload.ThinkTimeMean + 1) * 0.8)
}

// genWarm draws the serve-warm request list. Capacity goals are 1.5×
// the mean response time a seeded simulator run measures at each
// architecture's knee under the standard buy mix, as cmd/predload
// derives them.
func genWarm(seed int64, n int) (*warmInputs, error) {
	archs := workload.CaseStudyServers()
	in := &warmInputs{goals: map[string]float64{}}
	for _, a := range archs {
		res, err := trade.Run(trade.Config{
			Server:   a,
			DB:       workload.CaseStudyDB(),
			Demands:  workload.CaseStudyDemands(),
			Load:     workload.MixedWorkload(kneeOf(a), workload.StandardBuyFraction),
			Seed:     seed,
			WarmUp:   2,
			Duration: 10,
		})
		if err != nil {
			return nil, fmt.Errorf("derive capacity goal for %s: %w", a.Name, err)
		}
		in.goals[a.Name] = 1.5 * res.MeanRT
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		a := archs[rng.Intn(len(archs))]
		buy := float64(5 * rng.Intn(3))
		knee := kneeOf(a)
		clients := float64(knee/2 + rng.Intn(knee))
		q := warmReq{path: "/v1/predict"}
		switch u := rng.Float64(); {
		case u < 0.55:
			q.kind = kHybrid
		case u < 0.70:
			q.kind = kP90
		case u < 0.85:
			q.kind = kCapacity
		case u < 0.95:
			q.kind = kLQN
		default:
			q.kind = kRegress
		}
		var body any
		switch q.kind {
		case kCapacity:
			q.path = "/v1/capacity"
			q.capr = serve.CapacityRequest{Arch: a.Name, GoalRTS: in.goals[a.Name], BuyPct: buy, Method: "lqn"}
			body = q.capr
		default:
			q.pred = serve.PredictRequest{Arch: a.Name, Clients: clients, BuyPct: buy, Method: "hybrid"}
			switch q.kind {
			case kP90:
				q.pred.Percentile = 0.9
			case kLQN:
				q.pred.Method = "lqn"
			case kRegress:
				q.pred.Method = "regress"
			}
			body = q.pred
		}
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		q.body = b
		in.reqs = append(in.reqs, q)
	}
	return in, nil
}

// direct answers q with a direct Service call, bypassing HTTP/JSON.
func direct(svc *serve.Service, req *http.Request, q *warmReq) (val float64, evals int, err error) {
	if q.kind == kCapacity {
		resp, err := svc.Capacity(req, q.capr)
		if err != nil {
			return 0, 0, err
		}
		return resp.MaxClients, resp.Evaluations, nil
	}
	resp, err := svc.Predict(req, q.pred)
	if err != nil {
		return 0, 0, err
	}
	return resp.ResponseTimeS, 0, nil
}

// warmUp builds every key the list touches (hybrid models, regression
// models, the batch workers' layered states) by answering the whole
// list once in-process, then opens the callers' connections.
func warmUp(f *fixture, in *warmInputs) error {
	req := inProcess()
	for i := range in.reqs {
		if _, _, err := direct(f.svc, req, &in.reqs[i]); err != nil {
			return fmt.Errorf("warm-up request %d: %w", i, err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, runtime.NumCPU())
	for c := range errs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			q := &in.reqs[c%len(in.reqs)]
			_, _, errs[c] = checkWarmReply(q, f.post(q.path, q.body, openSpan{}))
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("warm-up connection: %w", err)
		}
	}
	return nil
}

// checkWarmReply validates one serve-warm reply: status 200, a body
// that decodes, finite positive fields, a warm (not cold) answer of the
// method asked for. An empty 200 body fails here.
func checkWarmReply(q *warmReq, rp reply) (val float64, evals int, err error) {
	if rp.err != nil {
		return 0, 0, rp.err
	}
	if rp.code != http.StatusOK {
		return 0, 0, fmt.Errorf("%s: status %d: %.120s", q.path, rp.code, rp.body)
	}
	if q.kind == kCapacity {
		var resp serve.CapacityResponse
		if err := json.Unmarshal(rp.body, &resp); err != nil {
			return 0, 0, fmt.Errorf("%s: undecodable %d-byte body: %v", q.path, len(rp.body), err)
		}
		if !finitePositive(resp.MaxClients) || resp.Evaluations <= 0 || resp.Cold {
			return 0, 0, fmt.Errorf("%s: bad capacity answer %+v", q.path, resp)
		}
		return resp.MaxClients, resp.Evaluations, nil
	}
	var resp serve.PredictResponse
	if err := json.Unmarshal(rp.body, &resp); err != nil {
		return 0, 0, fmt.Errorf("%s: undecodable %d-byte body: %v", q.path, len(rp.body), err)
	}
	if !finitePositive(resp.ResponseTimeS) || resp.Cold || resp.Method != q.pred.Method {
		return 0, 0, fmt.Errorf("%s: bad prediction %+v", q.path, resp)
	}
	return resp.ResponseTimeS, 0, nil
}

// reference answers every request of the list with a direct call to a
// second, identically set-up service, in list order.
func reference(ref *serve.Service, in *warmInputs) ([]float64, error) {
	req := inProcess()
	want := make([]float64, len(in.reqs))
	for i := range in.reqs {
		v, _, err := direct(ref, req, &in.reqs[i])
		if err != nil {
			return nil, fmt.Errorf("reference service, request %d: %w", i, err)
		}
		want[i] = v
	}
	return want, nil
}

// checkAnswer compares a served answer with the reference service's
// answer to the same request: hybrid, percentile, regression and
// capacity answers bit for bit, layered answers within lqnTol.
func checkAnswer(q *warmReq, got, want float64) error {
	if got == want || q.kind == kLQN && math.Abs(got-want) <= lqnTol*math.Abs(want) {
		return nil
	}
	return fmt.Errorf("%s %s: served %v, reference service %v", kindNames[q.kind], q.body, got, want)
}

// latHist counts latencies in buckets 0.1% wide from 1 µs to about
// 22 ms; slower replies share the last bucket. Its size is fixed, so
// the benchmark's own memory stays constant however many replies a
// pass completes, and peak RSS and garbage-collection pacing reflect
// the service rather than the recording.
type latHist []uint32

const histBuckets = 10000

var histStep = math.Log(1.001)

func newLatHist() latHist { return make(latHist, histBuckets) }

func (h latHist) add(us float64) {
	i := 0
	if us > 1 {
		i = min(histBuckets-1, int(math.Log(us)/histStep))
	}
	h[i]++
}

func (h latHist) count() int {
	n := 0
	for _, c := range h {
		n += int(c)
	}
	return n
}

// quantile is the nearest-rank p-quantile, as its bucket's midpoint.
func (h latHist) quantile(p float64) float64 {
	rank := int(math.Ceil(p * float64(h.count())))
	seen := 0
	for i, c := range h {
		seen += int(c)
		if seen >= max(rank, 1) {
			return math.Exp((float64(i) + 0.5) * histStep)
		}
	}
	return 0
}

func (h latHist) merge(o latHist) {
	for i, c := range o {
		h[i] += c
	}
}

// warmResult is one closed-loop pass.
type warmResult struct {
	wall    time.Duration
	width   time.Duration
	windows []latHist // latencies (µs) of replies completed in each window of width
	ok      int64     // correct replies, in a window or after the deadline
	failed  int64
	// capEvals sums the evaluations of capReplies capacity replies.
	capEvals, capReplies int64
	failures             []string
}

// warmPass runs one caller per core against f for d, each sending its
// next request as soon as the previous reply is read (closed loop, no
// think time). Caller c walks the list from c in strides of the caller
// count. Every reply is checked against want, the reference answers.
func warmPass(f *fixture, in *warmInputs, want []float64, d time.Duration, tr *tracer) *warmResult {
	callers := runtime.NumCPU()
	nwin := max(1, int(d/time.Second))
	width := d / time.Duration(nwin)
	parts := make([]warmResult, callers)
	for c := range parts {
		for w := 0; w < nwin; w++ {
			parts[c].windows = append(parts[c].windows, newLatHist())
		}
	}
	// Start every pass from a collected heap, so garbage from set-up or
	// an earlier pass is not collected on this pass's clock.
	runtime.GC()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w := &parts[c]
			for i, k := c, int64(1); time.Now().Before(deadline); i, k = i+callers, k+1 {
				idx := i % len(in.reqs)
				q := &in.reqs[idx]
				sp := tr.start("serve.client", 0, int64(c+1)<<40|k)
				t0 := time.Now()
				rp := f.post(q.path, q.body, sp)
				t1 := time.Now()
				sp.end()
				val, evals, err := checkWarmReply(q, rp)
				if err == nil {
					err = checkAnswer(q, val, want[idx])
				}
				if err != nil {
					w.failed++
					if len(w.failures) < 8 {
						w.failures = append(w.failures, err.Error())
					}
					continue
				}
				w.ok++
				if q.kind == kCapacity {
					w.capEvals += int64(evals)
					w.capReplies++
				}
				if b := int(t1.Sub(start) / width); b < nwin {
					w.windows[b].add(micros(t1.Sub(t0)))
				}
			}
		}(c)
	}
	wg.Wait()
	res := &parts[0]
	res.wall, res.width = time.Since(start), width
	for _, p := range parts[1:] {
		for w := range res.windows {
			res.windows[w].merge(p.windows[w])
		}
		res.ok += p.ok
		res.failed += p.failed
		res.capEvals += p.capEvals
		res.capReplies += p.capReplies
		res.failures = append(res.failures, p.failures...)
	}
	return res
}

// figures returns the pass's throughput (replies per second) and its
// median and 99th-percentile latency (µs), each the median over the
// one-second windows: a few seconds in which the host runs other
// tenants' work move them far less than they move whole-pass figures.
// Replies completed after the deadline fall outside every window.
func (w *warmResult) figures() (rps, p50, p99 float64) {
	var rates, p50s, p99s []float64
	for _, h := range w.windows {
		rates = append(rates, float64(h.count())/w.width.Seconds())
		p50s = append(p50s, h.quantile(0.5))
		p99s = append(p99s, h.quantile(0.99))
	}
	return median(rates), median(p50s), median(p99s)
}

// record counts a pass's operations and failures on r.
func (w *warmResult) record(r *runner) {
	r.ops(w.ok+w.failed, w.failed)
	for _, f := range w.failures {
		r.fail("serve-warm reply: %s", f)
	}
}

// startWarm starts a service and warms it, returning the set-up time.
func startWarm(in *warmInputs) (*fixture, float64, error) {
	t0 := time.Now()
	f, err := startFixture(nil)
	if err != nil {
		return nil, 0, err
	}
	if err := warmUp(f, in); err != nil {
		f.close()
		return nil, 0, err
	}
	return f, seconds(time.Since(t0)), nil
}

func runServeWarm(r *runner, size warmSize) error {
	in, err := genWarm(r.opt.seed, size.requests)
	if err != nil {
		return err
	}
	f, setup, err := startWarm(in)
	if err != nil {
		return err
	}
	defer f.close()
	// The reference service is set up exactly like the measured one,
	// which makes it a second set-up sample. It is built before any
	// pass so every pass runs beside the same live heap.
	ref, refSetup, err := startWarm(in)
	if err != nil {
		return err
	}
	defer ref.close()
	want, err := reference(ref.svc, in)
	if err != nil {
		return err
	}
	d := time.Duration(r.opt.seconds) * time.Second
	if r.opt.trace {
		d /= 2
	}
	r.logf("serve-warm: %d callers, %v pass", runtime.NumCPU(), d)
	resetPeakRSS()
	plain := warmPass(f, in, want, d, nil)
	plain.record(r)

	if !r.opt.trace {
		rps, p50, p99 := plain.figures()
		all := newLatHist()
		for _, h := range plain.windows {
			all.merge(h)
		}
		r.set("setup_s", median([]float64{setup, refSetup}))
		r.set("throughput_per_s", rps)
		r.set("p50_ms", p50/1e3)
		n := all.count()
		r.name("warm_rps", rps, "1/s", n, fmt.Sprintf("throughput_per_s (median of %d windows)", len(plain.windows)))
		r.name("warm_p50_us", p50, "us", n, "p50_ms (median of window medians)")
		r.name("warm_p99_us", p99, "us", n, "median of window p99s")
		r.name("warm_p99_us_whole_pass", all.quantile(0.99), "us", n, "")
		r.name("setup_measured_s", setup, "s", 0, "setup_s")
		r.name("setup_reference_s", refSetup, "s", 0, "setup_s")
		return nil
	}
	return traceServeWarm(r, f, in, want, d, plain)
}

// traceServeWarm is serve-warm's traced pass and in-process probes.
func traceServeWarm(r *runner, f *fixture, in *warmInputs, want []float64, d time.Duration, plain *warmResult) error {
	var traced *warmResult
	snap := withObs(func() {
		f.tr.Store(r.tr)
		traced = warmPass(f, in, want, d, r.tr)
		f.tr.Store(nil)
	})
	traced.record(r)
	plainRPS, _, _ := plain.figures()
	tracedRPS, _, _ := traced.figures()
	r.set("trace_overhead_pct", 100*(plainRPS-tracedRPS)/plainRPS)
	r.set("rm.capacity_evals_per_req", ratio(float64(traced.capEvals), float64(traced.capReplies)))
	hits, misses := float64(snap.Counters["serve_cache_hits"]), float64(snap.Counters["serve_cache_misses"])
	r.set("serve.cache_hit_ratio", ratio(hits, hits+misses))
	r.set("serve.batch_size_mean", histMean(snap, "serve_batch_size"))
	r.set("serve.batch_solves", float64(snap.Counters["serve_batch_solves"]))
	r.set("lqn.mva_iterations_per_solve", ratio(float64(snap.Counters["lqn_solver_mva_iterations"]), float64(snap.Counters["lqn_solver_solves"])))
	r.set("lqn.solves", float64(snap.Counters["lqn_solver_solves"]))

	if err := probeCodec(r, f, in); err != nil {
		return err
	}
	if err := probeAllocs(r, f, in); err != nil {
		return err
	}
	if err := probeOffline(r, in); err != nil {
		return err
	}

	spans := r.finishTrace()
	var client, handler []float64
	for _, s := range spans {
		switch s.Name {
		case "serve.client":
			client = append(client, float64(s.End-s.Start))
		case "serve.handler":
			handler = append(handler, float64(s.End-s.Start))
		}
	}
	r.set("serve.transport_self_us", (median(client)-median(handler))/1e3)
	r.name("client_rtt_p50_us", median(client)/1e3, "us", len(client), "")
	r.name("server_handler_p50_us", median(handler)/1e3, "us", len(handler), "")
	return nil
}

// probeCodec replays the list in-process twice per request: through
// Handler() into an httptest.ResponseRecorder, and as a direct
// Predict/Capacity call. The medians' difference is the HTTP/JSON codec
// and routing cost without a network.
func probeCodec(r *runner, f *fixture, in *warmInputs) error {
	h := f.svc.Handler()
	req := inProcess()
	var viaHandler, viaDirect []float64
	perKind := make([][]float64, numKinds)
	for i := range in.reqs {
		q := &in.reqs[i]
		rec := httptest.NewRecorder()
		hreq := httptest.NewRequest(http.MethodPost, q.path, bytes.NewReader(q.body))
		sp := r.tr.start("serve.inproc_handler", 0, 0)
		h.ServeHTTP(rec, hreq)
		viaHandler = append(viaHandler, float64(sp.end()))
		if _, _, err := checkWarmReply(q, reply{rec.Code, rec.Body.Bytes(), nil}); err != nil {
			r.fail("in-process handler, request %d: %v", i, err)
		}
		sp = r.tr.start("serve.direct."+kindNames[q.kind], 0, 0)
		_, _, err := direct(f.svc, req, q)
		dt := float64(sp.end())
		if err != nil {
			return fmt.Errorf("direct request %d: %w", i, err)
		}
		viaDirect = append(viaDirect, dt)
		perKind[q.kind] = append(perKind[q.kind], dt)
	}
	r.set("serve.codec_self_us", (median(viaHandler)-median(viaDirect))/1e3)
	r.set("serve.predict_hybrid_ns", median(append(append([]float64(nil), perKind[kHybrid]...), perKind[kP90]...)))
	r.set("serve.predict_regress_ns", median(perKind[kRegress]))
	r.set("serve.predict_lqn_us", median(perKind[kLQN])/1e3)
	r.set("serve.capacity_us", median(perKind[kCapacity])/1e3)
	return nil
}

// discardWriter is a reusable http.ResponseWriter, so an allocation
// count covers the handler alone.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

// probeAllocs counts heap allocations per warm hybrid mean prediction,
// through Handler() and as a direct Service.Predict call. Both counts
// are deterministic.
func probeAllocs(r *runner, f *fixture, in *warmInputs) error {
	var q *warmReq
	for i := range in.reqs {
		if in.reqs[i].kind == kHybrid {
			q = &in.reqs[i]
			break
		}
	}
	if q == nil {
		return fmt.Errorf("request list has no hybrid request")
	}
	const runs = 200
	h := f.svc.Handler()
	reqs := make([]*http.Request, runs+1)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, q.path, bytes.NewReader(q.body))
	}
	w := &discardWriter{h: http.Header{}}
	next := 0
	handlerAllocs := testing.AllocsPerRun(runs, func() {
		clear(w.h)
		h.ServeHTTP(w, reqs[next])
		next++
	})
	req := inProcess()
	var predictErr error
	predictAllocs := testing.AllocsPerRun(runs, func() {
		if _, err := f.svc.Predict(req, q.pred); err != nil {
			predictErr = err
		}
	})
	if predictErr != nil {
		return fmt.Errorf("allocation probe: %w", predictErr)
	}
	r.set("serve.handler_allocs_per_req", handlerAllocs)
	r.set("serve.predict_allocs_per_req", predictAllocs)
	return nil
}

// probeOffline times the predictor and solver layers without the
// service: hist.ServerModel.Predict on the warm hybrid populations, and
// a warm lqn.Solver on the layered populations, per key.
func probeOffline(r *runner, in *warmInputs) error {
	cfg := serviceConfig()
	type key struct {
		arch string
		buy  float64
	}
	archs := map[string]workload.ServerArch{}
	for _, a := range cfg.Archs {
		archs[a.Name] = a
	}
	models := map[key]*hist.ServerModel{}
	type call struct {
		sm *hist.ServerModel
		n  float64
	}
	var calls []call
	lqnPops := map[key][]int{}
	for i := range in.reqs {
		q := &in.reqs[i]
		k := key{q.pred.Arch, q.pred.BuyPct}
		switch q.kind {
		case kHybrid:
			sm := models[k]
			if sm == nil {
				var err error
				sp := r.tr.start("hybrid.build_server_mix", 0, 0)
				sm, _, err = hybrid.BuildServerMix(hybrid.Config{DB: cfg.DB, Demands: cfg.Demands, LQN: cfg.LQN}, archs[k.arch], k.buy/100)
				sp.end()
				if err != nil {
					return err
				}
				models[k] = sm
			}
			calls = append(calls, call{sm, q.pred.Clients})
		case kLQN:
			lqnPops[k] = append(lqnPops[k], int(q.pred.Clients+0.5))
		}
	}
	var perCall []float64
	var sink float64
	for rep := 0; rep < 21; rep++ {
		sp := r.tr.start("hybrid.predict_batch", 0, 0)
		for _, c := range calls {
			sink += c.sm.Predict(c.n)
		}
		perCall = append(perCall, float64(sp.end())/float64(len(calls)))
	}
	if !finitePositive(sink) {
		return fmt.Errorf("offline hybrid predictions are not finite")
	}
	r.set("hybrid.predict_ns", median(perCall))

	keys := make([]key, 0, len(lqnPops))
	for k := range lqnPops {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].arch != keys[j].arch {
			return keys[i].arch < keys[j].arch
		}
		return keys[i].buy < keys[j].buy
	})
	var solves []float64
	for _, k := range keys {
		load := func(n int) workload.Workload {
			if k.buy == 0 {
				return workload.TypicalWorkload(n)
			}
			return workload.MixedWorkload(n, k.buy/100)
		}
		model, err := lqn.NewTradeModel(archs[k.arch], cfg.DB, cfg.Demands, load(1))
		if err != nil {
			return err
		}
		solver := lqn.NewSolver()
		solver.WarmStart = true
		for _, n := range lqnPops[k] {
			for i, p := range load(n) {
				model.Classes[i].Population = p.Clients
			}
			sp := r.tr.start("lqn.solve_warm", 0, 0)
			_, err := solver.Solve(model, cfg.LQN)
			solves = append(solves, float64(sp.end()))
			if err != nil {
				return err
			}
		}
	}
	r.set("lqn.solve_warm_us", median(solves)/1e3)
	return nil
}
