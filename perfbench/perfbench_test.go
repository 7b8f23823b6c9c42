package main

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"perfpred/internal/bench"
	"perfpred/internal/serve"
	"perfpred/internal/trade"
)

// TestMain lets the test binary stand in for the benchmark binary when
// paper-repro starts a suite process.
func TestMain(m *testing.M) {
	if w := os.Getenv(childEnv); w != "" {
		os.Exit(reproChild(w, os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

const repoRoot = ".."

// Short sizes keep every workload to a few seconds.
var (
	shortWarm  = warmSize{requests: 256}
	shortCold  = coldSize{keys: 12, secondsPerPass: 1, replay: 2}
	shortFleet = fleetSize{pools: 6, clientsPerPool: 40, simSeconds: 4}
	shortRepro = reproSize{experiments: []string{"table2", "gradient", "figure3", "search", "matrix", "ablation-mva"}, secondsPerRun: 1}
)

var shortRuns = map[string]func(*runner) error{
	"serve-warm":   func(r *runner) error { return runServeWarm(r, shortWarm) },
	"serve-cold":   func(r *runner) error { return runServeCold(r, shortCold) },
	"fleet-routed": func(r *runner) error { return runFleet(r, shortFleet) },
	"paper-repro":  func(r *runner) error { return runRepro(r, shortRepro) },
}

func newTestRunner(t *testing.T, workload string, trace bool) *runner {
	t.Helper()
	o := options{workload: workload, seed: 7, seconds: 1, trace: trace, root: repoRoot, outDir: t.TempDir()}
	return newRunner(o, io.Discard)
}

// TestBenchmarkJSON pins BENCHMARK.json to the workloads and metrics
// the binary emits, and to the contract's limits.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the binary", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the binary", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the binary", len(spec.EndToEnd), len(endToEnd))
	}
	var setupBound, maxBound float64
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end-to-end %d: %+v in BENCHMARK.json, %+v in the binary", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = max(maxBound, m.Bound)
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the binary", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: %+v in BENCHMARK.json, %+v in the binary", i, m, d)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", spec.RunSeconds)
	}
}

// measuredOn reports whether a per-layer metric's tag says the workload
// measures it.
func measuredOn(d metricDef, workload string) bool {
	return d.Measured == "all" || strings.Contains(d.Measured, workload)
}

// TestWorkloadsShort runs every workload briefly, untraced and traced:
// every check passes, every metric is emitted with its unit, the
// traced run measures exactly the per-layer metrics its tags name, and
// no span has negative self time.
func TestWorkloadsShort(t *testing.T) {
	inSubset := map[string]bool{}
	for _, name := range shortRepro.experiments {
		inSubset["bench."+name+"_s"] = true
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			w, trace := w.name, trace
			t.Run(w+map[bool]string{false: "/e2e", true: "/trace"}[trace], func(t *testing.T) {
				r := newTestRunner(t, w, trace)
				if err := shortRuns[w](r); err != nil {
					t.Fatal(err)
				}
				res, err := r.finish()
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("checks failed: %v", r.failures)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics emitted, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.Name, m, d.Unit)
					}
				}
				if err := r.writeFiles(res); err != nil {
					t.Fatal(err)
				}
				if !trace {
					return
				}
				for _, d := range perLayer {
					_, set := r.values[d.Name]
					want := measuredOn(d, w)
					if strings.HasPrefix(d.Name, "bench.") && w == "paper-repro" {
						want = inSubset[d.Name]
					}
					if set != want {
						t.Errorf("per-layer %s measured=%v on %s, its tag says %v", d.Name, set, w, want)
					}
				}
				spans := r.tr.snapshot()
				if len(spans) == 0 {
					t.Fatal("traced run recorded no spans")
				}
				if err := checkSpans(spans); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestSelfTime checks self time against a hand-worked span tree:
// overlapping children count once.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},
		{ID: 4, Parent: 1, Start: 90, End: 100},
		{ID: 5, Parent: 3, Start: 25, End: 35},
	}
	computeSelf(spans)
	want := map[int64]int64{1: 50, 2: 20, 3: 20, 4: 10, 5: 10}
	for _, s := range spans {
		if s.Self != want[s.ID] {
			t.Errorf("span %d: self %d, want %d", s.ID, s.Self, want[s.ID])
		}
	}
	if err := checkSpans(spans); err != nil {
		t.Errorf("well-formed tree flagged: %v", err)
	}
}

// TestMalformedSpansFail doctors a well-formed tree four ways: each
// must be reported, and a child running past its parent is not hidden
// by clipping.
func TestMalformedSpansFail(t *testing.T) {
	for _, c := range []struct {
		name  string
		child span
		want  string
	}{
		{"child ends after its parent", span{ID: 2, Parent: 1, Start: 90, End: 120}, "outside its parent"},
		{"child starts before its parent", span{ID: 2, Parent: 1, Start: -5, End: 20}, "outside its parent"},
		{"broken parent link", span{ID: 2, Parent: 9, Start: 10, End: 20}, "parent not recorded"},
		{"child ends before it starts", span{ID: 2, Parent: 1, Start: 30, End: 20}, "ends before it starts"},
	} {
		spans := []span{{ID: 1, Start: 0, End: 100}, c.child}
		computeSelf(spans)
		err := checkSpans(spans)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err=%v, want it to mention %q", c.name, err, c.want)
		}
	}
	// A child covering more than its parent drives the parent's self
	// time negative, which is reported too.
	spans := []span{{ID: 1, Start: 10, End: 20}, {ID: 2, Parent: 1, Start: 0, End: 30}}
	computeSelf(spans)
	if spans[0].Self >= 0 {
		t.Fatalf("parent self %d, want negative", spans[0].Self)
	}
	if err := checkSpans(spans); err == nil || !strings.Contains(err.Error(), "negative self time") {
		t.Errorf("negative self time: err=%v", err)
	}
	// A traced run whose span tree is malformed is not correct.
	r := newTestRunner(t, "fleet-routed", true)
	r.ops(1, 0)
	now := time.Now()
	r.tr.record("orphan", 99, 0, now, now.Add(time.Microsecond))
	r.finishTrace()
	res, err := r.finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Error("traced run with an orphan span reported correct")
	}
}

// TestEmptyBodyFails serves serve-warm requests from a stub handler
// that answers 200 with an empty body, as writeJSON does when encoding
// fails: every request must count as failed and the run as incorrect.
func TestEmptyBodyFails(t *testing.T) {
	f, err := startFixture(func(*serve.Service) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) })
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	q := warmReq{kind: kHybrid, path: "/v1/predict", pred: serve.PredictRequest{Arch: "AppServF", Clients: 500, Method: "hybrid"}}
	q.body, _ = json.Marshal(q.pred)
	in := &warmInputs{reqs: []warmReq{q}}
	res := warmPass(f, in, []float64{0.1}, 100*time.Millisecond, nil)
	if res.failed == 0 || res.ok != 0 {
		t.Fatalf("empty 200 bodies: %d failed, %d succeeded", res.failed, res.ok)
	}
	r := newTestRunner(t, "serve-warm", false)
	res.record(r)
	r.set("setup_s", 1)
	r.set("throughput_per_s", 1)
	r.set("p50_ms", 1)
	out, err := r.finish()
	if err != nil {
		t.Fatal(err)
	}
	if out.Correct || out.Failed != res.failed {
		t.Fatalf("result %+v should be incorrect with %d failures", out, res.failed)
	}
}

// TestWrongAnswersFail checks the reference comparison on doctored
// answers: a hybrid or capacity value off in its last bit fails, and a
// layered value fails beyond the solver tolerance but not within it.
func TestWrongAnswersFail(t *testing.T) {
	const v = 0.0421
	for _, c := range []struct {
		kind int
		got  float64
		ok   bool
	}{
		{kHybrid, v, true},
		{kHybrid, math.Nextafter(v, 1), false},
		{kCapacity, math.Nextafter(v, 0), false},
		{kLQN, v * (1 + lqnTol/10), true},
		{kLQN, v * (1 + 10*lqnTol), false},
	} {
		if err := checkAnswer(&warmReq{kind: c.kind}, c.got, v); (err == nil) != c.ok {
			t.Errorf("%s answer %v against %v: err=%v, want ok=%v", kindNames[c.kind], c.got, v, err, c.ok)
		}
	}
}

// TestColdReplyChecks feeds serve-cold's reply check doctored replies.
func TestColdReplyChecks(t *testing.T) {
	for _, c := range []struct {
		name     string
		rp       reply
		wantCold bool
		ok       bool
	}{
		{"cold first answer", reply{code: 200, body: []byte(`{"response_time_s":0.1,"cold":true,"build_ms":20}`)}, true, true},
		{"warm repeat", reply{code: 200, body: []byte(`{"response_time_s":0.1}`)}, false, true},
		{"first answer not cold", reply{code: 200, body: []byte(`{"response_time_s":0.1}`)}, true, false},
		{"repeat cold again", reply{code: 200, body: []byte(`{"response_time_s":0.1,"cold":true,"build_ms":20}`)}, false, false},
		{"empty 200", reply{code: 200}, true, false},
		{"429", reply{code: 429, body: []byte(`{"error":"overloaded"}`)}, true, false},
		{"zero prediction", reply{code: 200, body: []byte(`{"response_time_s":0,"cold":true,"build_ms":20}`)}, true, false},
	} {
		if _, err := checkColdReply(c.rp, c.wantCold); (err == nil) != c.ok {
			t.Errorf("%s: err=%v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// TestFingerprintMismatchFails runs a small fleet and compares it with
// doctored copies of its own result.
func TestFingerprintMismatchFails(t *testing.T) {
	fr, err := runFleetOnce(shortFleet, 3, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := fingerprintOf(fr.res)
	r := newTestRunner(t, "fleet-routed", false)
	checkFingerprint(r, "itself", ref, fr.res)
	if r.failed != 0 {
		t.Fatalf("identical run flagged: %v", r.failures)
	}
	doctored := *fr.res
	doctored.Decisions++
	checkFingerprint(r, "doctored decisions", ref, &doctored)
	tr := *fr.res.Trade
	tr.PerClass = map[string]trade.ClassResult{}
	for name, c := range fr.res.Trade.PerClass {
		c.MeanRT = math.Nextafter(c.MeanRT, math.Inf(1))
		tr.PerClass[name] = c
	}
	doctored = *fr.res
	doctored.Trade = &tr
	checkFingerprint(r, "doctored mean RT", ref, &doctored)
	if r.failed != 2 {
		t.Fatalf("%d of 2 doctored fingerprints caught", r.failed)
	}
}

// TestGoldenComparison checks the table comparison: an identical table
// passes, a wall-clock cell may differ, any other cell may not.
func TestGoldenComparison(t *testing.T) {
	text, err := os.ReadFile(filepath.Join(repoRoot, goldenFile))
	if err != nil {
		t.Fatal(err)
	}
	golden, err := parseTables(string(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(golden) != len(bench.Experiments()) {
		t.Fatalf("%d reference tables, %d experiments", len(golden), len(bench.Experiments()))
	}
	s := bench.NewSuite(reproSeed)
	tab, err := s.Run("ablation-mva")
	if err != nil {
		t.Fatal(err)
	}
	if err := compareTable(tab, golden); err != nil {
		t.Fatalf("fresh table: %v", err)
	}
	timed := *tab
	timed.Rows = cloneRows(tab.Rows)
	timed.Rows[0][4] = "123.456ms"
	if err := compareTable(&timed, golden); err != nil {
		t.Fatalf("wall-clock cell change flagged: %v", err)
	}
	wrong := *tab
	wrong.Rows = cloneRows(tab.Rows)
	wrong.Rows[0][1] = "9.9ms"
	if err := compareTable(&wrong, golden); err == nil {
		t.Fatal("changed result cell not flagged")
	}
}

func cloneRows(rows [][]string) [][]string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = append([]string(nil), r...)
	}
	return out
}
