// Package serve is the long-lived prediction service: the paper's
// predictors packaged behind a concurrent HTTP/JSON API and engineered
// as a serving hot path. Batch artifacts — a hybrid model built once,
// queried offline — become cached, amortised online models, the regime
// Witt et al. (arXiv:1805.11877) argue performance prediction must
// reach to pay for itself.
//
// The serving architecture has four load-bearing pieces:
//
//   - a per-(architecture, mix) model cache: one parallel.Memo per
//     predictor tier, bounded by Config.CacheCapacity, whose
//     singleflight collapses a thundering herd of cold requests for
//     one key into exactly one build (stampede control) and whose LRU
//     bound evicts idle finished models, never a build in progress;
//   - async build workers: cold hybrid builds run warm-started
//     layered sweeps under a bounded worker semaphore, so build cost
//     is paid off the steady-state request path and bounded in
//     concurrency;
//   - a request-coalescing batch solver for exact layered queries:
//     queued solves are drained in batches, grouped by model and
//     sorted by population, so N adjacent-population requests become
//     one warm-start sweep instead of N cold solves;
//   - admission control: bounded queues everywhere, per-request
//     deadlines, and typed backpressure — overload degrades to fast
//     429s with Retry-After, never to collapse.
//
// Every stage is wired into the obs registry (per-endpoint latency
// histograms, cache traffic, queue depths and high-water marks), and
// cmd/predload turns the system on itself: it drives this service with
// trade-simulator-derived request streams and snapshots the evidence
// to BENCH_serve.json.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"perfpred/internal/lqn"
	"perfpred/internal/regress"
	"perfpred/internal/rm"
	"perfpred/internal/rtdist"
	"perfpred/internal/workload"
)

// Typed serving errors: the admission controller's vocabulary.
var (
	// ErrOverloaded means a bounded queue was full; the client should
	// back off and retry (HTTP 429 + Retry-After).
	ErrOverloaded = errors.New("serve: overloaded, retry later")
	// ErrShuttingDown means the service stopped accepting work (503).
	ErrShuttingDown = errors.New("serve: shutting down")
)

// badRequestError marks client mistakes (unknown architecture, bad
// parameters) so the handler maps them to 400 instead of 500.
type badRequestError struct{ msg string }

func (e *badRequestError) Error() string { return e.msg }

// Config assembles a Service.
type Config struct {
	// Archs are the servable architectures; requests name them by
	// ServerArch.Name.
	Archs []workload.ServerArch
	// DB is the shared database server behind every architecture.
	DB workload.DBServer
	// Demands are the calibrated per-request-type demands on the
	// reference architecture.
	Demands map[workload.RequestType]workload.Demand
	// LQN tunes every layered solve (builds, batch solves, searches).
	LQN lqn.Options
	// PointsPerEquation is the hybrid build fidelity (0 selects the
	// paper's 4).
	PointsPerEquation int

	// CacheCapacity bounds the model cache in entries; 0 = unbounded.
	CacheCapacity int

	// LaplaceB fixes the §7.1 percentile scale in seconds. 0 means
	// calibrate per (architecture, mix) from a fixed-seed simulator
	// run during the cold build — slower builds, honest tails.
	LaplaceB float64
	// CalibrationSeed seeds the calibration runs (default 1).
	CalibrationSeed int64
	// CalibrationSimSeconds is the calibration run's simulated horizon
	// (default 40; a quarter of it is warm-up).
	CalibrationSimSeconds float64

	// RegressTrainSamples is how many simulator measurements the cheap
	// regress tier trains on per (architecture, mix) (default 8).
	RegressTrainSamples int
	// RegressSimSeconds is each regress training run's simulated
	// horizon (default 20; a quarter of it is warm-up). The whole
	// training set costs RegressTrainSamples × 1.25 × this in simulated
	// seconds — the knob that keeps the tier cheap.
	RegressSimSeconds float64
	// RegressDegree is the polynomial degree of the regress tier
	// (default 2 — the cheap tier favours robustness over fit).
	RegressDegree int

	// BuildWorkers bounds concurrent cold builds (default 2).
	BuildWorkers int
	// MaxQueuedBuilds bounds builds waiting for a worker slot beyond
	// the running ones; more cold keys than this reject with 429
	// (default 8).
	MaxQueuedBuilds int
	// SolveWorkers is the batch solver's worker count (default
	// GOMAXPROCS).
	SolveWorkers int
	// MaxQueuedSolves bounds the batch solver's queue (default 256).
	MaxQueuedSolves int
	// MaxBatch caps how many queued solves one worker drains into a
	// single warm-start sweep (default 64).
	MaxBatch int

	// DefaultDeadline is applied to requests that do not carry their
	// own deadline_ms (default 5s). Deadlines are capped at 60s.
	DefaultDeadline time.Duration
	// RetryAfter is the backoff hint attached to 429 responses
	// (default 1s).
	RetryAfter time.Duration
}

func (c Config) withDefaults() Config {
	if c.CalibrationSeed == 0 {
		c.CalibrationSeed = 1
	}
	if c.CalibrationSimSeconds == 0 {
		c.CalibrationSimSeconds = 40
	}
	if c.RegressTrainSamples <= 0 {
		c.RegressTrainSamples = 8
	}
	if c.RegressSimSeconds <= 0 {
		c.RegressSimSeconds = 20
	}
	if c.RegressDegree <= 0 {
		c.RegressDegree = 2
	}
	if c.BuildWorkers <= 0 {
		c.BuildWorkers = 2
	}
	if c.MaxQueuedBuilds <= 0 {
		c.MaxQueuedBuilds = 8
	}
	if c.SolveWorkers <= 0 {
		c.SolveWorkers = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueuedSolves <= 0 {
		c.MaxQueuedSolves = 256
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 5 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// Service is the long-lived prediction service. Create with New,
// mount Handler on an HTTP server, and Close after the HTTP server
// has drained (Close stops the batch workers only once their queue is
// empty, so every accepted request still gets its answer).
type Service struct {
	cfg    Config
	archs  map[string]workload.ServerArch
	hybrid *tier[*modelEntry]
	// regress is the cheap tier: black-box regression models trained
	// from a few short simulator runs.
	regress *tier[*regress.Model]
	batch   *batcher

	closed atomic.Bool
}

// New validates the configuration and starts the batch workers.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Archs) == 0 {
		return nil, errors.New("serve: no architectures configured")
	}
	if err := cfg.DB.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Demands) == 0 {
		return nil, errors.New("serve: no demands configured")
	}
	s := &Service{cfg: cfg, archs: make(map[string]workload.ServerArch, len(cfg.Archs))}
	for _, a := range cfg.Archs {
		if err := a.Validate(); err != nil {
			return nil, err
		}
		if _, dup := s.archs[a.Name]; dup {
			return nil, fmt.Errorf("serve: duplicate architecture %q", a.Name)
		}
		s.archs[a.Name] = a
	}
	s.hybrid = newTier(cfg.CacheCapacity, cfg.BuildWorkers, cfg.MaxQueuedBuilds, s.buildEntry)
	s.regress = newTier(cfg.CacheCapacity, cfg.BuildWorkers, cfg.MaxQueuedBuilds, s.buildRegressModel)
	s.batch = newBatcher(cfg.SolveWorkers, cfg.MaxQueuedSolves, cfg.MaxBatch, cfg.LQN, s.makeState)
	return s, nil
}

// Close drains and stops the batch workers. Call it only after the
// HTTP server has shut down: accepted requests still queued are
// answered before the workers exit.
func (s *Service) Close() {
	if s.closed.CompareAndSwap(false, true) {
		s.batch.close()
	}
}

// makeState builds a batch worker's warm solving context for one key.
func (s *Service) makeState(key modelKey) (*keyState, error) {
	arch, ok := s.archs[key.arch]
	if !ok {
		return nil, &badRequestError{msg: "unknown architecture " + key.arch}
	}
	buyFrac := key.buyFrac()
	load := func(n int) workload.Workload {
		if buyFrac <= 0 {
			return workload.TypicalWorkload(n)
		}
		return workload.MixedWorkload(n, buyFrac)
	}
	model, err := lqn.NewTradeModel(arch, s.cfg.DB, s.cfg.Demands, load(1))
	if err != nil {
		return nil, err
	}
	solver := lqn.NewSolver()
	solver.WarmStart = true
	return &keyState{model: model, solver: solver, load: load}, nil
}

// weightedMeanRT recomputes Result.MeanResponseTime iterating classes
// in model order: the Result method walks a map, and float summation
// order perturbs the last digits, which would make identical queries
// return non-identical numbers.
func weightedMeanRT(model *lqn.Model, res *lqn.Result) float64 {
	var xSum, rxSum float64
	for _, cl := range model.Classes {
		c := res.Classes[cl.Name]
		xSum += c.Throughput
		rxSum += c.Throughput * c.ResponseTime
	}
	if xSum == 0 {
		return 0
	}
	return rxSum / xSum
}

// ---- request/response schema ----

// PredictRequest asks for a response-time prediction.
type PredictRequest struct {
	Arch    string  `json:"arch"`
	Clients float64 `json:"clients"`
	// BuyPct is the buy percentage of the mix (0–100; 0 = typical
	// all-browse workload).
	BuyPct float64 `json:"buy_pct"`
	// Percentile, in (0,1), converts the mean prediction via the §7.1
	// distributions; 0 predicts the mean.
	Percentile float64 `json:"percentile"`
	// Method is "hybrid" (default; cached closed-form model), "lqn"
	// (exact layered solve through the coalescing batcher) or "regress"
	// (cheap-tier black-box regression, means only).
	Method string `json:"method"`
	// DeadlineMS overrides the service's default deadline.
	DeadlineMS int64 `json:"deadline_ms"`
}

// PredictResponse is the answer.
type PredictResponse struct {
	Arch          string  `json:"arch"`
	Clients       float64 `json:"clients"`
	BuyPct        float64 `json:"buy_pct"`
	Method        string  `json:"method"`
	Percentile    float64 `json:"percentile,omitempty"`
	ResponseTimeS float64 `json:"response_time_s"`
	// Cold reports whether this request waited on a model build.
	Cold bool `json:"cold"`
	// BuildMS is the cold build's wall-clock cost (0 on warm hits).
	BuildMS float64 `json:"build_ms,omitempty"`
}

// CapacityRequest asks for the largest client population an
// architecture holds within a response-time goal.
type CapacityRequest struct {
	Arch       string  `json:"arch"`
	GoalRTS    float64 `json:"goal_rt_s"`
	BuyPct     float64 `json:"buy_pct"`
	Method     string  `json:"method"`
	DeadlineMS int64   `json:"deadline_ms"`
}

// CapacityResponse is the answer.
type CapacityResponse struct {
	Arch        string  `json:"arch"`
	GoalRTS     float64 `json:"goal_rt_s"`
	BuyPct      float64 `json:"buy_pct"`
	Method      string  `json:"method"`
	MaxClients  float64 `json:"max_clients"`
	Evaluations int     `json:"evaluations,omitempty"`
	// Capped reports that the lqn search reached its population limit
	// with the goal still met: MaxClients is that limit, a lower bound
	// on the capacity rather than the capacity itself.
	Capped  bool    `json:"capped,omitempty"`
	Cold    bool    `json:"cold"`
	BuildMS float64 `json:"build_ms,omitempty"`
}

// AllocateRequest runs Algorithm 1 over the cached models.
type AllocateRequest struct {
	Classes []AllocClass  `json:"classes"`
	Servers []AllocServer `json:"servers"`
	Slack   float64       `json:"slack"`
	BuyPct  float64       `json:"buy_pct"`
	// AllowDeflation permits slack < 1 (the §9 sweep's knob).
	AllowDeflation bool  `json:"allow_deflation"`
	DeadlineMS     int64 `json:"deadline_ms"`
}

// AllocClass mirrors rm.Class.
type AllocClass struct {
	Name    string  `json:"name"`
	GoalRTS float64 `json:"goal_rt_s"`
	Clients int     `json:"clients"`
}

// AllocServer mirrors rm.Server.
type AllocServer struct {
	Name  string  `json:"name"`
	Arch  string  `json:"arch"`
	Power float64 `json:"power"`
}

// AllocateResponse mirrors rm.Plan.
type AllocateResponse struct {
	Allocations     []Allocation   `json:"allocations"`
	RejectedPlanned map[string]int `json:"rejected_planned,omitempty"`
	Slack           float64        `json:"slack"`
	UsagePct        float64        `json:"usage_pct"`
}

// Allocation mirrors rm.Allocation.
type Allocation struct {
	Server  string `json:"server"`
	Class   string `json:"class"`
	Clients int    `json:"clients"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// ---- HTTP plumbing ----

// Handler returns the service's HTTP mux:
//
//	GET|POST /v1/predict   response-time prediction
//	GET|POST /v1/capacity  max-clients query
//	POST     /v1/allocate  Algorithm 1 allocation plan
//	GET      /healthz      liveness + configured architectures
//
// Mount the obs Handler alongside it for /metrics and /debug.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/predict", s.handlePredict)
	mux.HandleFunc("/v1/capacity", s.handleCapacity)
	mux.HandleFunc("/v1/allocate", s.handleAllocate)
	mux.HandleFunc("/healthz", s.handleHealth)
	return mux
}

// maxDeadline caps every request's deadline.
const maxDeadline = time.Minute

// requestCtx applies the per-request deadline. The cap is compared in
// milliseconds before converting, so a huge deadline_ms cannot wrap the
// Duration product negative and expire the request at once.
func (s *Service) requestCtx(r *http.Request, deadlineMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultDeadline
	if deadlineMS > 0 {
		d = maxDeadline
		if deadlineMS < maxDeadline.Milliseconds() {
			d = time.Duration(deadlineMS) * time.Millisecond
		}
	}
	if d > maxDeadline {
		d = maxDeadline
	}
	return context.WithTimeout(r.Context(), d)
}

// millis converts a build's wall-clock cost to the milliseconds the
// responses report.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// jsonBufs recycles response buffers. Encoding into a buffer before
// the header goes out is what lets an encode failure (a non-finite
// number, which JSON cannot carry) still become a typed 500.
var jsonBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSON writes v with status, or a 500 error if v cannot be encoded.
func (s *Service) writeJSON(w http.ResponseWriter, status int, v any) {
	buf := jsonBufs.Get().(*bytes.Buffer)
	defer func() {
		buf.Reset()
		jsonBufs.Put(buf)
	}()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		s.writeError(w, fmt.Errorf("serve: encoding response: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

// writeError maps the service's typed errors onto status codes: 400
// for client mistakes, 429 + Retry-After for backpressure, 503 while
// shutting down, 504 for expired deadlines, 500 otherwise.
func (s *Service) writeError(w http.ResponseWriter, err error) {
	m := metrics.Load()
	status := http.StatusInternalServerError
	var bad *badRequestError
	switch {
	case errors.As(err, &bad):
		status = http.StatusBadRequest
	case errors.Is(err, ErrOverloaded):
		status = http.StatusTooManyRequests
		secs := int(math.Ceil(s.cfg.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	case errors.Is(err, ErrShuttingDown):
		status = http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		status = http.StatusGatewayTimeout
		m.deadlineExpired.Inc()
	default:
		m.errors.Inc()
	}
	s.writeJSON(w, status, errorResponse{Error: err.Error()})
}

// decodeInto parses a request from a JSON body (POST) or query
// parameters (GET; numeric fields named like their JSON tags).
func decodeInto(r *http.Request, dst any) error {
	if r.Method == http.MethodPost {
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(dst); err != nil {
			return &badRequestError{msg: "bad JSON body: " + err.Error()}
		}
		return nil
	}
	q := r.URL.Query()
	get := func(name string) (string, bool) { v := q.Get(name); return v, v != "" }
	getF := func(name string, into *float64) error {
		if v, ok := get(name); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return &badRequestError{msg: "bad " + name + ": " + v}
			}
			*into = f
		}
		return nil
	}
	// getDeadline parses deadline_ms, rejecting what int64 cannot hold
	// (NaN included) rather than letting the conversion invent a value.
	getDeadline := func(into *int64) error {
		var dl float64
		if err := getF("deadline_ms", &dl); err != nil {
			return err
		}
		if !(dl >= math.MinInt64 && dl < math.MaxInt64) {
			return &badRequestError{msg: fmt.Sprintf("deadline_ms %v out of range", dl)}
		}
		*into = int64(dl)
		return nil
	}
	switch d := dst.(type) {
	case *PredictRequest:
		if v, ok := get("arch"); ok {
			d.Arch = v
		}
		if v, ok := get("method"); ok {
			d.Method = v
		}
		for name, into := range map[string]*float64{
			"clients": &d.Clients, "buy_pct": &d.BuyPct, "percentile": &d.Percentile,
		} {
			if err := getF(name, into); err != nil {
				return err
			}
		}
		return getDeadline(&d.DeadlineMS)
	case *CapacityRequest:
		if v, ok := get("arch"); ok {
			d.Arch = v
		}
		if v, ok := get("method"); ok {
			d.Method = v
		}
		for name, into := range map[string]*float64{
			"goal_rt_s": &d.GoalRTS, "buy_pct": &d.BuyPct,
		} {
			if err := getF(name, into); err != nil {
				return err
			}
		}
		return getDeadline(&d.DeadlineMS)
	default:
		return &badRequestError{msg: "method not allowed"}
	}
}

func validateCommon(arch string, buyPct float64) error {
	if arch == "" {
		return &badRequestError{msg: "missing arch"}
	}
	return validateBuyPct(buyPct)
}

// validateBuyPct, like every range check here, is written so that NaN,
// which fails every comparison, falls outside the range.
func validateBuyPct(buyPct float64) error {
	if !(buyPct >= 0 && buyPct <= 100) {
		return &badRequestError{msg: fmt.Sprintf("buy_pct %v outside [0,100]", buyPct)}
	}
	return nil
}

// positiveFinite reports whether x is a usable population or goal.
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// ---- endpoints ----

func (s *Service) handlePredict(w http.ResponseWriter, r *http.Request) {
	m := metrics.Load()
	m.predictRequests.Inc()
	m.inflight.Add(1)
	start := time.Now()
	defer func() {
		m.inflight.Add(-1)
		m.predictSeconds.Observe(time.Since(start).Seconds())
	}()

	var req PredictRequest
	if err := decodeInto(r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	resp, err := s.Predict(r, req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// Predict answers a PredictRequest; it is exported so in-process
// callers (tests, load generators) can bypass HTTP decoding while
// exercising the identical serving path.
func (s *Service) Predict(r *http.Request, req PredictRequest) (*PredictResponse, error) {
	if s.closed.Load() {
		return nil, ErrShuttingDown
	}
	if err := validateCommon(req.Arch, req.BuyPct); err != nil {
		return nil, err
	}
	if !positiveFinite(req.Clients) {
		return nil, &badRequestError{msg: "clients must be positive and finite"}
	}
	if !(req.Percentile >= 0 && req.Percentile < 1) {
		return nil, &badRequestError{msg: fmt.Sprintf("percentile %v outside [0,1)", req.Percentile)}
	}
	method := req.Method
	if method == "" {
		method = "hybrid"
	}
	ctx, cancel := s.requestCtx(r, req.DeadlineMS)
	defer cancel()

	key := makeKey(req.Arch, req.BuyPct)
	resp := &PredictResponse{
		Arch: req.Arch, Clients: req.Clients, BuyPct: req.BuyPct,
		Method: method, Percentile: req.Percentile,
	}

	switch method {
	case "hybrid":
		entry, wall, cold, err := s.hybrid.get(ctx, key)
		if err != nil {
			return nil, err
		}
		resp.Cold, resp.BuildMS = cold, millis(wall)
		if req.Percentile > 0 {
			rt, err := entry.sm.PredictPercentile(req.Clients, req.Percentile, entry.laplaceB)
			if err != nil {
				return nil, err
			}
			resp.ResponseTimeS = rt
		} else {
			resp.ResponseTimeS = entry.sm.Predict(req.Clients)
		}
	case "regress":
		if req.Percentile > 0 {
			return nil, &badRequestError{msg: "method regress predicts means only (no percentile support)"}
		}
		model, wall, cold, err := s.regress.get(ctx, key)
		if err != nil {
			return nil, err
		}
		resp.Cold, resp.BuildMS = cold, millis(wall)
		rt, err := model.Predict(req.Arch, req.Clients)
		if err != nil {
			return nil, err
		}
		resp.ResponseTimeS = rt
	case "lqn":
		rt, err := s.batchSolveRT(ctx, key, int(req.Clients+0.5))
		if err != nil {
			return nil, err
		}
		resp.ResponseTimeS = rt
		if req.Percentile > 0 {
			// The layered solver predicts only means; percentile
			// conversion borrows the cached hybrid entry's saturation
			// boundary and Laplace scale, exactly as the offline
			// comparison does.
			entry, _, cold, err := s.hybrid.get(ctx, key)
			if err != nil {
				return nil, err
			}
			resp.Cold = cold
			p, err := rtdist.PercentileFromMean(rt, entry.sm.Saturated(req.Clients), entry.laplaceB, req.Percentile)
			if err != nil {
				return nil, err
			}
			resp.ResponseTimeS = p
		}
	default:
		return nil, &badRequestError{msg: "unknown method " + method + " (want hybrid, lqn or regress)"}
	}
	return resp, nil
}

// batchSolveRT routes one exact solve through the coalescing batcher.
func (s *Service) batchSolveRT(ctx context.Context, key modelKey, n int) (float64, error) {
	if n < 1 {
		n = 1
	}
	job := &solveJob{kind: solveRT, key: key, n: n, ctx: ctx, resp: make(chan solveOut, 1)}
	if err := s.batch.submit(job); err != nil {
		return 0, err
	}
	select {
	case out := <-job.resp:
		return out.rt, out.err
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

func (s *Service) handleCapacity(w http.ResponseWriter, r *http.Request) {
	m := metrics.Load()
	m.capacityRequests.Inc()
	m.inflight.Add(1)
	start := time.Now()
	defer func() {
		m.inflight.Add(-1)
		m.capacitySeconds.Observe(time.Since(start).Seconds())
	}()

	var req CapacityRequest
	if err := decodeInto(r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	resp, err := s.Capacity(r, req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// Capacity answers a CapacityRequest (see Predict for the in-process
// contract).
func (s *Service) Capacity(r *http.Request, req CapacityRequest) (*CapacityResponse, error) {
	if s.closed.Load() {
		return nil, ErrShuttingDown
	}
	if err := validateCommon(req.Arch, req.BuyPct); err != nil {
		return nil, err
	}
	if !positiveFinite(req.GoalRTS) {
		return nil, &badRequestError{msg: "goal_rt_s must be positive and finite"}
	}
	method := req.Method
	if method == "" {
		method = "hybrid"
	}
	ctx, cancel := s.requestCtx(r, req.DeadlineMS)
	defer cancel()

	key := makeKey(req.Arch, req.BuyPct)
	resp := &CapacityResponse{Arch: req.Arch, GoalRTS: req.GoalRTS, BuyPct: req.BuyPct, Method: method}

	switch method {
	case "hybrid":
		entry, wall, cold, err := s.hybrid.get(ctx, key)
		if err != nil {
			return nil, err
		}
		resp.Cold, resp.BuildMS = cold, millis(wall)
		n, err := entry.sm.MaxClients(req.GoalRTS)
		if err != nil {
			return nil, err
		}
		resp.MaxClients = n
	case "regress":
		model, wall, cold, err := s.regress.get(ctx, key)
		if err != nil {
			return nil, err
		}
		resp.Cold, resp.BuildMS = cold, millis(wall)
		n, err := model.MaxClients(req.Arch, req.GoalRTS)
		if err != nil {
			return nil, err
		}
		resp.MaxClients = n
	case "lqn":
		job := &solveJob{kind: solveCapacity, key: key, goalRT: req.GoalRTS, ctx: ctx, resp: make(chan solveOut, 1)}
		if err := s.batch.submit(job); err != nil {
			return nil, err
		}
		select {
		case out := <-job.resp:
			if out.err != nil {
				return nil, out.err
			}
			resp.MaxClients = float64(out.n)
			resp.Evaluations = out.evals
			resp.Capped = out.capped
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	default:
		return nil, &badRequestError{msg: "unknown method " + method + " (want hybrid, lqn or regress)"}
	}
	return resp, nil
}

func (s *Service) handleAllocate(w http.ResponseWriter, r *http.Request) {
	m := metrics.Load()
	m.allocateRequests.Inc()
	m.inflight.Add(1)
	start := time.Now()
	defer func() {
		m.inflight.Add(-1)
		m.allocateSeconds.Observe(time.Since(start).Seconds())
	}()

	if r.Method != http.MethodPost {
		s.writeError(w, &badRequestError{msg: "allocate requires POST"})
		return
	}
	var req AllocateRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, &badRequestError{msg: "bad JSON body: " + err.Error()})
		return
	}
	resp, err := s.Allocate(r, req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// Allocate answers an AllocateRequest: Algorithm 1 over the cached
// per-(architecture, mix) models.
func (s *Service) Allocate(r *http.Request, req AllocateRequest) (*AllocateResponse, error) {
	if s.closed.Load() {
		return nil, ErrShuttingDown
	}
	if len(req.Classes) == 0 || len(req.Servers) == 0 {
		return nil, &badRequestError{msg: "allocate needs classes and servers"}
	}
	if err := validateBuyPct(req.BuyPct); err != nil {
		return nil, err
	}
	ctx, cancel := s.requestCtx(r, req.DeadlineMS)
	defer cancel()

	classes := make([]rm.Class, len(req.Classes))
	for i, c := range req.Classes {
		classes[i] = rm.Class{Name: c.Name, GoalRT: c.GoalRTS, Clients: c.Clients}
	}
	servers := make([]rm.Server, len(req.Servers))
	for i, sv := range req.Servers {
		if _, ok := s.archs[sv.Arch]; !ok {
			return nil, &badRequestError{msg: "unknown architecture " + sv.Arch}
		}
		servers[i] = rm.Server{Name: sv.Name, Arch: sv.Arch, Power: sv.Power}
	}
	pred := cachedPredictor{s: s, ctx: ctx, buyPct: req.BuyPct}
	plan, err := rm.Allocate(classes, servers, pred, req.Slack, rm.Options{AllowDeflation: req.AllowDeflation})
	if err != nil {
		// Distinguish operational failures (overload, deadline) from
		// rm's own validation errors, which are the client's fault.
		if errors.Is(err, ErrOverloaded) || errors.Is(err, ErrShuttingDown) ||
			errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			return nil, err
		}
		return nil, &badRequestError{msg: err.Error()}
	}
	resp := &AllocateResponse{Slack: plan.Slack, UsagePct: plan.UsagePct, RejectedPlanned: plan.RejectedPlanned}
	for _, a := range plan.Allocations {
		resp.Allocations = append(resp.Allocations, Allocation{Server: a.Server, Class: a.Class, Clients: a.Clients})
	}
	return resp, nil
}

// cachedPredictor adapts the model cache to rm.Predictor for one
// request's context and mix.
type cachedPredictor struct {
	s      *Service
	ctx    context.Context
	buyPct float64
}

func (p cachedPredictor) Predict(arch string, n float64) (float64, error) {
	entry, _, _, err := p.s.hybrid.get(p.ctx, makeKey(arch, p.buyPct))
	if err != nil {
		return 0, err
	}
	return entry.sm.Predict(n), nil
}

func (p cachedPredictor) MaxClients(arch string, goalRT float64) (float64, error) {
	entry, _, _, err := p.s.hybrid.get(p.ctx, makeKey(arch, p.buyPct))
	if err != nil {
		return 0, err
	}
	return entry.sm.MaxClients(goalRT)
}

func (s *Service) handleHealth(w http.ResponseWriter, _ *http.Request) {
	names := make([]string, 0, len(s.archs))
	for _, a := range s.cfg.Archs {
		names = append(names, a.Name)
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "archs": names})
}
