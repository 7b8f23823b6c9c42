package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"perfpred/internal/hybrid"
	"perfpred/internal/lqn"
	"perfpred/internal/regress"
	"perfpred/internal/rm"
	"perfpred/internal/trade"
	"perfpred/internal/workload"
)

// testLaplaceB pins the percentile scale so tests skip the simulator
// calibration a production cold build pays for.
const testLaplaceB = 0.05

func testConfig() Config {
	return Config{
		Archs:    workload.CaseStudyServers(),
		DB:       workload.CaseStudyDB(),
		Demands:  workload.CaseStudyDemands(),
		LaplaceB: testLaplaceB,
	}
}

func newTestService(t *testing.T, mutate func(*Config)) *Service {
	t.Helper()
	cfg := testConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func newTestServer(t *testing.T, mutate func(*Config)) (*Service, *httptest.Server) {
	t.Helper()
	s := newTestService(t, mutate)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return s, srv
}

// getJSON issues a request and decodes the body; it returns the status
// so error-path tests can assert on it.
func getJSON(t *testing.T, client *http.Client, url string, out any) int {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, client *http.Client, url string, body, out any) int {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding POST %s: %v", url, err)
		}
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

// TestServedHybridMatchesOffline is the round-trip equality check: a
// prediction served over HTTP/JSON must be bit-identical to the same
// query answered by the offline hybrid stack (Go's JSON float encoding
// round-trips float64 exactly, so nothing is lost on the wire).
func TestServedHybridMatchesOffline(t *testing.T) {
	_, srv := newTestServer(t, nil)
	client := srv.Client()

	offline := func(arch workload.ServerArch, buyFrac float64) *hybrid.Config {
		return &hybrid.Config{DB: workload.CaseStudyDB(), Demands: workload.CaseStudyDemands()}
	}
	for _, tc := range []struct {
		arch    workload.ServerArch
		buyPct  float64
		clients float64
		pct     float64
	}{
		{workload.AppServF(), 0, 500, 0},
		{workload.AppServF(), 0, 1800, 0.9},
		{workload.AppServS(), 10, 400, 0},
		{workload.AppServVF(), 25.5, 2500, 0.95},
	} {
		sm, _, err := hybrid.BuildServerMix(*offline(tc.arch, tc.buyPct/100), tc.arch, tc.buyPct/100)
		if err != nil {
			t.Fatal(err)
		}
		want := sm.Predict(tc.clients)
		if tc.pct > 0 {
			want, err = sm.PredictPercentile(tc.clients, tc.pct, testLaplaceB)
			if err != nil {
				t.Fatal(err)
			}
		}
		var got PredictResponse
		url := fmt.Sprintf("%s/v1/predict?arch=%s&clients=%v&buy_pct=%v&percentile=%v",
			srv.URL, tc.arch.Name, tc.clients, tc.buyPct, tc.pct)
		if code := getJSON(t, client, url, &got); code != http.StatusOK {
			t.Fatalf("%s: status %d", url, code)
		}
		if got.ResponseTimeS != want {
			t.Fatalf("%s buy %v%% n=%v p=%v: served %v, offline %v",
				tc.arch.Name, tc.buyPct, tc.clients, tc.pct, got.ResponseTimeS, want)
		}

		// Capacity inverts the same model: exact equality again.
		goal := 2.5 * sm.Predict(1)
		wantCap, err := sm.MaxClients(goal)
		if err != nil {
			t.Fatal(err)
		}
		var capResp CapacityResponse
		url = fmt.Sprintf("%s/v1/capacity?arch=%s&goal_rt_s=%v&buy_pct=%v",
			srv.URL, tc.arch.Name, goal, tc.buyPct)
		if code := getJSON(t, client, url, &capResp); code != http.StatusOK {
			t.Fatalf("%s: status %d", url, code)
		}
		if capResp.MaxClients != wantCap {
			t.Fatalf("%s capacity: served %v, offline %v", tc.arch.Name, capResp.MaxClients, wantCap)
		}
	}
}

// The cheap regress tier must serve exactly what an identically
// configured offline training run fits: the service is a cache in
// front of a deterministic build, nothing more. Warm repeats are
// byte-identical and free; percentile requests are a client mistake.
func TestServedRegressTierMatchesOffline(t *testing.T) {
	_, srv := newTestServer(t, func(c *Config) {
		c.RegressSimSeconds = 4 // short training sims keep the test fast
	})
	client := srv.Client()
	arch := workload.AppServS()

	offline, err := regress.Train(regress.TrainConfig{
		Archs:         []workload.ServerArch{arch},
		BuyFracs:      []float64{0},
		SamplesPerMix: 8,
		Seed:          1, // the service's default CalibrationSeed
		Opt:           trade.MeasureOptions{WarmUp: 1, Duration: 4},
		Fit:           regress.FitConfig{Degree: 2},
	})
	if err != nil {
		t.Fatal(err)
	}

	var first PredictResponse
	url := fmt.Sprintf("%s/v1/predict?arch=%s&clients=300&method=regress", srv.URL, arch.Name)
	if code := getJSON(t, client, url, &first); code != http.StatusOK {
		t.Fatalf("%s: status %d", url, code)
	}
	if !first.Cold {
		t.Error("first regress request did not report a cold build")
	}
	want, err := offline.Predict(arch.Name, 300)
	if err != nil {
		t.Fatal(err)
	}
	if first.ResponseTimeS != want {
		t.Fatalf("served regress rt %v, offline %v", first.ResponseTimeS, want)
	}

	var warm PredictResponse
	if code := getJSON(t, client, url, &warm); code != http.StatusOK {
		t.Fatalf("warm repeat: status %d", code)
	}
	if warm.Cold || warm.ResponseTimeS != first.ResponseTimeS {
		t.Fatalf("warm repeat: cold=%v rt=%v, want warm rt=%v", warm.Cold, warm.ResponseTimeS, first.ResponseTimeS)
	}

	goal := 4 * want
	wantCap, err := offline.MaxClients(arch.Name, goal)
	if err != nil {
		t.Fatal(err)
	}
	var capResp CapacityResponse
	capURL := fmt.Sprintf("%s/v1/capacity?arch=%s&goal_rt_s=%v&method=regress", srv.URL, arch.Name, goal)
	if code := getJSON(t, client, capURL, &capResp); code != http.StatusOK {
		t.Fatalf("%s: status %d", capURL, code)
	}
	if capResp.MaxClients != wantCap {
		t.Fatalf("served regress capacity %v, offline %v", capResp.MaxClients, wantCap)
	}

	// The tier predicts means only: percentile requests are 400s.
	pctURL := url + "&percentile=0.9"
	if code := getJSON(t, client, pctURL, nil); code != http.StatusBadRequest {
		t.Fatalf("percentile with regress: status %d, want 400", code)
	}
}

// TestServedLQNMatchesOffline checks the exact layered path: the
// batcher's warm-started solves must agree with a cold offline solve
// to well within the solver's convergence tolerance, and repeating the
// identical query must reproduce the identical number.
func TestServedLQNMatchesOffline(t *testing.T) {
	_, srv := newTestServer(t, nil)
	client := srv.Client()

	arch := workload.AppServF()
	const n = 900
	model, err := lqn.NewTradeModel(arch, workload.CaseStudyDB(), workload.CaseStudyDemands(), workload.TypicalWorkload(n))
	if err != nil {
		t.Fatal(err)
	}
	res, err := lqn.NewSolver().Solve(model, lqn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := weightedMeanRT(model, res)

	url := fmt.Sprintf("%s/v1/predict?arch=%s&clients=%d&method=lqn", srv.URL, arch.Name, n)
	var first PredictResponse
	if code := getJSON(t, client, url, &first); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if rel := math.Abs(first.ResponseTimeS-want) / want; rel > 1e-6 {
		t.Fatalf("served lqn RT %v vs offline %v (rel %v)", first.ResponseTimeS, want, rel)
	}
	// A repeat of the identical query warm-starts from the previous
	// solution — that history-dependence is the coalescing design — so
	// repeats agree to the solver's convergence tolerance, not bitwise.
	var second PredictResponse
	getJSON(t, client, url, &second)
	if rel := math.Abs(second.ResponseTimeS-first.ResponseTimeS) / first.ResponseTimeS; rel > 1e-6 {
		t.Fatalf("identical lqn queries disagreed beyond tolerance: %v vs %v", first.ResponseTimeS, second.ResponseTimeS)
	}

	// Capacity through the batcher: deterministic across repeats, and
	// the returned population really does straddle the goal.
	goal := 2 * want
	capURL := fmt.Sprintf("%s/v1/capacity?arch=%s&goal_rt_s=%v&method=lqn", srv.URL, arch.Name, goal)
	var c1, c2 CapacityResponse
	if code := getJSON(t, client, capURL, &c1); code != http.StatusOK {
		t.Fatalf("capacity status %d", code)
	}
	getJSON(t, client, capURL, &c2)
	if c1.MaxClients != c2.MaxClients {
		t.Fatalf("identical lqn capacity queries disagreed: %v vs %v", c1.MaxClients, c2.MaxClients)
	}
	if c1.Evaluations <= 0 {
		t.Fatal("capacity search reported no evaluations")
	}
	if c1.Capped {
		t.Fatalf("capacity %v under goal %v flagged as capped", c1.MaxClients, goal)
	}
	atRT := func(pop int) float64 {
		for i, p := range workload.TypicalWorkload(pop) {
			model.Classes[i].Population = p.Clients
		}
		r, err := lqn.NewSolver().Solve(model, lqn.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return weightedMeanRT(model, r)
	}
	nCap := int(c1.MaxClients)
	if nCap < 1 {
		t.Fatalf("capacity %v under goal %v", c1.MaxClients, goal)
	}
	if rt := atRT(nCap); rt > goal*(1+1e-6) {
		t.Fatalf("served capacity %d breaks the goal: RT %v > %v", nCap, rt, goal)
	}
	if rt := atRT(nCap + 1); rt <= goal {
		t.Fatalf("served capacity %d not maximal: RT(%d) = %v <= %v", nCap, nCap+1, rt, goal)
	}
}

// TestServedLQNCapacityFlagsSearchCap checks that a goal no population
// up to the search limit breaks is answered with the limit and flagged
// as capped, not passed off as the capacity.
func TestServedLQNCapacityFlagsSearchCap(t *testing.T) {
	_, srv := newTestServer(t, nil)
	capURL := fmt.Sprintf("%s/v1/capacity?arch=%s&goal_rt_s=1e9&method=lqn", srv.URL, workload.AppServF().Name)
	var resp CapacityResponse
	if code := getJSON(t, srv.Client(), capURL, &resp); code != http.StatusOK {
		t.Fatalf("capacity status %d", code)
	}
	if resp.MaxClients != capacityLimit || !resp.Capped {
		t.Fatalf("max_clients %v capped %v, want %d capped", resp.MaxClients, resp.Capped, capacityLimit)
	}
}

// offlinePredictor adapts offline hybrid models to rm.Predictor for
// the allocation round-trip.
type offlinePredictor struct {
	t      *testing.T
	models map[string]interface {
		Predict(float64) float64
		MaxClients(float64) (float64, error)
	}
}

func (p offlinePredictor) Predict(arch string, n float64) (float64, error) {
	return p.models[arch].Predict(n), nil
}

func (p offlinePredictor) MaxClients(arch string, goal float64) (float64, error) {
	return p.models[arch].MaxClients(goal)
}

// TestServedAllocationMatchesOffline round-trips Algorithm 1: the plan
// served from cached models must equal rm.Allocate run offline over
// identically-built models.
func TestServedAllocationMatchesOffline(t *testing.T) {
	_, srv := newTestServer(t, nil)
	client := srv.Client()

	req := AllocateRequest{
		Classes: []AllocClass{
			{Name: "gold", GoalRTS: 0.06, Clients: 900},
			{Name: "silver", GoalRTS: 0.3, Clients: 2200},
		},
		Servers: []AllocServer{
			{Name: "s1", Arch: "AppServS", Power: 1},
			{Name: "f1", Arch: "AppServF", Power: 1},
			{Name: "vf1", Arch: "AppServVF", Power: 1},
		},
		Slack: 1.1,
	}
	var got AllocateResponse
	if code := postJSON(t, client, srv.URL+"/v1/allocate", req, &got); code != http.StatusOK {
		t.Fatalf("allocate status %d", code)
	}

	cfg := hybrid.Config{DB: workload.CaseStudyDB(), Demands: workload.CaseStudyDemands()}
	pred := offlinePredictor{t: t, models: map[string]interface {
		Predict(float64) float64
		MaxClients(float64) (float64, error)
	}{}}
	for _, a := range workload.CaseStudyServers() {
		sm, _, err := hybrid.BuildServerMix(cfg, a, 0)
		if err != nil {
			t.Fatal(err)
		}
		pred.models[a.Name] = sm
	}
	classes := []rm.Class{{Name: "gold", GoalRT: 0.06, Clients: 900}, {Name: "silver", GoalRT: 0.3, Clients: 2200}}
	servers := []rm.Server{{Name: "s1", Arch: "AppServS", Power: 1}, {Name: "f1", Arch: "AppServF", Power: 1}, {Name: "vf1", Arch: "AppServVF", Power: 1}}
	want, err := rm.Allocate(classes, servers, pred, 1.1, rm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Allocations) != len(want.Allocations) {
		t.Fatalf("served %d allocations, offline %d", len(got.Allocations), len(want.Allocations))
	}
	for i, a := range want.Allocations {
		g := got.Allocations[i]
		if g.Server != a.Server || g.Class != a.Class || g.Clients != a.Clients {
			t.Fatalf("allocation %d: served %+v, offline %+v", i, g, a)
		}
	}
	if got.Slack != want.Slack || got.UsagePct != want.UsagePct {
		t.Fatalf("plan summary: served (%v, %v), offline (%v, %v)", got.Slack, got.UsagePct, want.Slack, want.UsagePct)
	}
}

// TestColdStampedeBuildsOnce aims a thundering herd of identical cold
// requests at the service: exactly one hybrid build may run; everyone
// shares its result.
func TestColdStampedeBuildsOnce(t *testing.T) {
	s, srv := newTestServer(t, nil)
	client := srv.Client()

	var builds atomic.Int32
	orig := s.hybrid.build
	s.hybrid.build = func(k modelKey) (*modelEntry, error) {
		builds.Add(1)
		time.Sleep(20 * time.Millisecond) // widen the stampede window
		return orig(k)
	}

	const herd = 32
	results := make([]float64, herd)
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var resp PredictResponse
			code := getJSON(t, client, srv.URL+"/v1/predict?arch=AppServF&clients=500", &resp)
			if code != http.StatusOK {
				t.Errorf("herd request %d: status %d", i, code)
				return
			}
			results[i] = resp.ResponseTimeS
		}(i)
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("stampede triggered %d builds, want 1", n)
	}
	for i := 1; i < herd; i++ {
		if results[i] != results[0] {
			t.Fatalf("herd members disagree: %v vs %v", results[i], results[0])
		}
	}
}

// TestEvictionRebuild bounds the cache at one entry and alternates two
// keys: each switch must evict, rebuild on the next request, and keep
// serving numbers identical to the first build of that key.
func TestEvictionRebuild(t *testing.T) {
	s, srv := newTestServer(t, func(c *Config) { c.CacheCapacity = 1 })
	client := srv.Client()

	var builds atomic.Int32
	orig := s.hybrid.build
	s.hybrid.build = func(k modelKey) (*modelEntry, error) {
		builds.Add(1)
		return orig(k)
	}

	predict := func(arch string) float64 {
		var resp PredictResponse
		if code := getJSON(t, client, srv.URL+"/v1/predict?arch="+arch+"&clients=500", &resp); code != http.StatusOK {
			t.Fatalf("%s: status %d", arch, code)
		}
		return resp.ResponseTimeS
	}
	f1 := predict("AppServF") // build 1
	s1 := predict("AppServS") // build 2, evicts F
	f2 := predict("AppServF") // build 3, evicts S
	f3 := predict("AppServF") // warm hit
	if n := builds.Load(); n != 3 {
		t.Fatalf("%d builds, want 3 (two cold + one rebuild)", n)
	}
	if f1 != f2 || f2 != f3 {
		t.Fatalf("rebuilt model disagrees: %v, %v, %v", f1, f2, f3)
	}
	if s1 == f1 {
		t.Fatal("distinct architectures served identical predictions")
	}
	if s.hybrid.models.Len() != 1 {
		t.Fatalf("cache holds %d entries, capacity 1", s.hybrid.models.Len())
	}
}

// TestConcurrentServing is the race-tier soak: hybrid and layered
// requests across every architecture and several mixes, all in flight
// together, must each reproduce the value the quiet service serves for
// the same query afterwards — exactly for the closed-form hybrid path,
// and to solver tolerance for the warm-started layered path.
func TestConcurrentServing(t *testing.T) {
	_, srv := newTestServer(t, nil)
	client := srv.Client()

	type query struct {
		url string
		lqn bool
	}
	archs := []string{"AppServS", "AppServF", "AppServVF"}
	var queries []query
	for i, arch := range archs {
		for _, n := range []int{200, 700, 1500} {
			queries = append(queries, query{url: fmt.Sprintf("%s/v1/predict?arch=%s&clients=%d&buy_pct=%d", srv.URL, arch, n, 5*i)})
		}
		queries = append(queries, query{url: fmt.Sprintf("%s/v1/predict?arch=%s&clients=400&method=lqn", srv.URL, arch), lqn: true})
	}
	const reps = 4
	got := make([]float64, reps*len(queries))
	var wg sync.WaitGroup
	for rep := 0; rep < reps; rep++ {
		for qi, q := range queries {
			wg.Add(1)
			go func(slot int, q query) {
				defer wg.Done()
				var resp PredictResponse
				if code := getJSON(t, client, q.url, &resp); code != http.StatusOK {
					t.Errorf("%s: status %d", q.url, code)
					return
				}
				got[slot] = resp.ResponseTimeS
			}(rep*len(queries)+qi, q)
		}
	}
	wg.Wait()
	for qi, q := range queries {
		var quiet PredictResponse
		getJSON(t, client, q.url, &quiet)
		for rep := 0; rep < reps; rep++ {
			v := got[rep*len(queries)+qi]
			if q.lqn {
				if rel := math.Abs(v-quiet.ResponseTimeS) / quiet.ResponseTimeS; rel > 1e-6 {
					t.Fatalf("%s: concurrent answer %v vs quiet %v beyond solver tolerance", q.url, v, quiet.ResponseTimeS)
				}
			} else if v != quiet.ResponseTimeS {
				t.Fatalf("%s: concurrent answer %v, quiet answer %v", q.url, v, quiet.ResponseTimeS)
			}
		}
	}
}

// TestOverloadShedsNotCollapses floods the build queue with distinct
// cold keys while warm traffic continues: the flood must shed with 429
// + Retry-After, and the accepted (warm) requests' p99 must stay within
// 2× of the uncontended p99 — backpressure, not collapse.
func TestOverloadShedsNotCollapses(t *testing.T) {
	s, srv := newTestServer(t, func(c *Config) {
		c.BuildWorkers = 1
		c.MaxQueuedBuilds = 1
	})
	client := srv.Client()

	warmURL := srv.URL + "/v1/predict?arch=AppServF&clients=500"
	if code := getJSON(t, client, warmURL, nil); code != http.StatusOK {
		t.Fatalf("warm-up status %d", code)
	}
	orig := s.hybrid.build
	s.hybrid.build = func(k modelKey) (*modelEntry, error) {
		time.Sleep(30 * time.Millisecond) // an expensive cold build
		return orig(k)
	}

	warmP99 := func(samples int) time.Duration {
		lats := make([]time.Duration, samples)
		for i := range lats {
			start := time.Now()
			if code := getJSON(t, client, warmURL, nil); code != http.StatusOK {
				t.Fatalf("warm request status %d", code)
			}
			lats[i] = time.Since(start)
		}
		// Nearest-rank p99 over the sorted latencies.
		for i := 1; i < len(lats); i++ {
			for j := i; j > 0 && lats[j] < lats[j-1]; j-- {
				lats[j], lats[j-1] = lats[j-1], lats[j]
			}
		}
		return lats[(samples*99)/100]
	}
	uncontended := warmP99(200)

	// 10× overload: a barrage of distinct cold keys (each a 30ms build
	// against a ~100µs warm request) hammers the build queue.
	var floodWG sync.WaitGroup
	var shed, okCold atomic.Int32
	stop := make(chan struct{})
	for g := 0; g < 10; g++ {
		floodWG.Add(1)
		go func(g int) {
			defer floodWG.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				url := fmt.Sprintf("%s/v1/predict?arch=AppServS&clients=100&buy_pct=%d.%d", srv.URL, (g*97+i)%90, i%10)
				resp, err := client.Get(url)
				if err != nil {
					t.Errorf("flood request: %v", err)
					return
				}
				if resp.StatusCode == http.StatusTooManyRequests {
					shed.Add(1)
					if resp.Header.Get("Retry-After") == "" {
						t.Error("429 without Retry-After")
					}
				} else if resp.StatusCode == http.StatusOK {
					okCold.Add(1)
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(g)
	}
	contended := warmP99(200)
	close(stop)
	floodWG.Wait()

	if shed.Load() == 0 {
		t.Fatal("overload shed nothing: no 429s observed")
	}
	// Generous floor so scheduler noise on a loaded -race run cannot
	// flake the ratio when the uncontended p99 is tens of microseconds.
	bound := 2 * uncontended
	if floor := 20 * time.Millisecond; bound < floor {
		bound = floor
	}
	if contended > bound {
		t.Fatalf("accepted p99 %v under overload exceeds bound %v (uncontended %v)", contended, bound, uncontended)
	}
	t.Logf("uncontended p99 %v, overloaded p99 %v, shed %d, cold accepted %d",
		uncontended, contended, shed.Load(), okCold.Load())
}

// TestDeadlineExpiresWith504 parks a request behind a slow build with a
// millisecond deadline: it must come back 504, not hang.
func TestDeadlineExpiresWith504(t *testing.T) {
	s, srv := newTestServer(t, nil)
	client := srv.Client()

	orig := s.hybrid.build
	release := make(chan struct{})
	s.hybrid.build = func(k modelKey) (*modelEntry, error) {
		<-release
		return orig(k)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// The flight leader: generous deadline, blocked on the build.
		getJSON(t, client, srv.URL+"/v1/predict?arch=AppServF&clients=500", nil)
	}()
	time.Sleep(10 * time.Millisecond) // let the leader take the flight
	code := getJSON(t, client, srv.URL+"/v1/predict?arch=AppServF&clients=500&deadline_ms=5", nil)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("deadline-bound waiter got %d, want 504", code)
	}
	close(release)
	wg.Wait()
}

// TestGracefulShutdownDrains closes the service while layered solves
// are in flight: every request accepted before shutdown must still get
// its answer (the drain contract), and requests after it must be told
// the service is gone rather than hanging.
func TestGracefulShutdownDrains(t *testing.T) {
	s := newTestService(t, func(c *Config) { c.SolveWorkers = 1 })

	const inflight = 24
	codes := make(chan error, inflight)
	var wg sync.WaitGroup
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodGet,
				fmt.Sprintf("/v1/predict?arch=AppServF&clients=%d&method=lqn", 100+i*50), nil)
			resp, err := s.Predict(req, PredictRequest{Arch: "AppServF", Clients: float64(100 + i*50), Method: "lqn"})
			if err != nil {
				codes <- err
				return
			}
			if resp.ResponseTimeS <= 0 {
				codes <- fmt.Errorf("non-positive RT %v", resp.ResponseTimeS)
				return
			}
			codes <- nil
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let the herd enqueue
	s.Close()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("shutdown left requests hanging")
	}
	close(codes)
	var answered, refused int
	for err := range codes {
		switch {
		case err == nil:
			answered++
		case err == ErrShuttingDown:
			refused++
		default:
			t.Fatalf("request dropped mid-drain: %v", err)
		}
	}
	if answered+refused != inflight {
		t.Fatalf("accounted for %d of %d requests", answered+refused, inflight)
	}
	if answered == 0 {
		t.Fatal("no request was answered before shutdown")
	}
	// After Close the service refuses new work instead of hanging.
	req := httptest.NewRequest(http.MethodGet, "/v1/predict", nil)
	if _, err := s.Predict(req, PredictRequest{Arch: "AppServF", Clients: 10}); err != ErrShuttingDown {
		t.Fatalf("post-shutdown predict: %v, want ErrShuttingDown", err)
	}
}

// TestBadRequests maps every client mistake to a 400 with a JSON error
// body.
func TestBadRequests(t *testing.T) {
	_, srv := newTestServer(t, nil)
	client := srv.Client()
	for _, url := range []string{
		"/v1/predict?arch=NoSuchServer&clients=10",
		"/v1/predict?clients=10",
		"/v1/predict?arch=AppServF&clients=0",
		"/v1/predict?arch=AppServF&clients=10&percentile=1.5",
		"/v1/predict?arch=AppServF&clients=10&buy_pct=150",
		"/v1/predict?arch=AppServF&clients=10&method=tarot",
		"/v1/capacity?arch=AppServF&goal_rt_s=0",
		"/v1/capacity?arch=AppServF&goal_rt_s=-1",
		// Non-finite numbers parse as floats but are no valid input.
		"/v1/predict?arch=AppServF&clients=NaN",
		"/v1/predict?arch=AppServF&clients=Inf",
		"/v1/predict?arch=AppServF&clients=10&buy_pct=NaN",
		"/v1/predict?arch=AppServF&clients=10&percentile=NaN",
		"/v1/capacity?arch=AppServF&goal_rt_s=NaN",
		"/v1/capacity?arch=AppServF&goal_rt_s=Inf",
		"/v1/capacity?arch=AppServF&goal_rt_s=1&buy_pct=NaN",
	} {
		var e errorResponse
		if code := getJSON(t, client, srv.URL+url, &e); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", url, code)
		} else if e.Error == "" {
			t.Errorf("%s: empty error body", url)
		}
	}
	if code := postJSON(t, client, srv.URL+"/v1/allocate", AllocateRequest{}, nil); code != http.StatusBadRequest {
		t.Errorf("empty allocate: status %d, want 400", code)
	}
	if code := postJSON(t, client, srv.URL+"/v1/allocate", AllocateRequest{
		Classes: []AllocClass{{Name: "g", GoalRTS: 0.1, Clients: 10}},
		Servers: []AllocServer{{Name: "x", Arch: "AppServF", Power: 1}},
		Slack:   0.5, // deflation without opting in
	}, nil); code != http.StatusBadRequest {
		t.Errorf("slack<1 without allow_deflation: status %d, want 400", code)
	}
}

// TestUnencodableResultIs500 asks the regress tier for a population so
// far outside its training range that the prediction is not finite:
// JSON cannot carry it, so the answer must be a typed 500 error, not a
// 200 with an empty body.
func TestUnencodableResultIs500(t *testing.T) {
	_, srv := newTestServer(t, func(c *Config) { c.RegressSimSeconds = 4 })
	var e errorResponse
	url := srv.URL + "/v1/predict?arch=AppServF&clients=1e300&method=regress"
	if code := getJSON(t, srv.Client(), url, &e); code != http.StatusInternalServerError {
		t.Fatalf("non-finite prediction: status %d, want 500", code)
	}
	if e.Error == "" {
		t.Fatal("non-finite prediction: empty error body")
	}
}

// TestPatientWaiterOutlivesLeaderDeadline: the flight leader waits for
// a build slot under its own deadline. When that deadline expires, a
// caller on the same key with a longer deadline must not inherit the
// leader's 504 — it takes over the build and gets its answer.
func TestPatientWaiterOutlivesLeaderDeadline(t *testing.T) {
	s, srv := newTestServer(t, func(c *Config) { c.BuildWorkers = 1 })
	client := srv.Client()

	orig := s.hybrid.build
	holding := make(chan struct{})
	release := make(chan struct{})
	s.hybrid.build = func(k modelKey) (*modelEntry, error) {
		if k.arch == "AppServS" {
			close(holding)
			<-release // hold the only build slot
		}
		return orig(k)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		getJSON(t, client, srv.URL+"/v1/predict?arch=AppServS&clients=500", nil)
	}()
	<-holding

	leader := make(chan int, 1)
	go func() {
		leader <- getJSON(t, client, srv.URL+"/v1/predict?arch=AppServF&clients=500&deadline_ms=50", nil)
	}()
	for s.hybrid.queued.Load() == 0 { // the leader is waiting for the slot
		time.Sleep(time.Millisecond)
	}
	patient := make(chan int, 1)
	go func() {
		patient <- getJSON(t, client, srv.URL+"/v1/predict?arch=AppServF&clients=500&deadline_ms=5000", nil)
	}()
	if code := <-leader; code != http.StatusGatewayTimeout {
		t.Fatalf("leader with a 50ms deadline got %d, want 504", code)
	}
	close(release)
	wg.Wait()
	if code := <-patient; code != http.StatusOK {
		t.Fatalf("patient waiter got %d, want 200 (it inherited the leader's deadline)", code)
	}
}

// TestHealthz sanity-checks the liveness endpoint.
func TestHealthz(t *testing.T) {
	_, srv := newTestServer(t, nil)
	var h struct {
		Status string   `json:"status"`
		Archs  []string `json:"archs"`
	}
	if code := getJSON(t, srv.Client(), srv.URL+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if h.Status != "ok" || len(h.Archs) != 3 {
		t.Fatalf("healthz = %+v", h)
	}
}

// TestCancelledClientContext covers the batcher's queued-but-dead
// path: a job whose context dies in the queue is skipped, not solved.
func TestCancelledClientContext(t *testing.T) {
	s := newTestService(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	job := &solveJob{kind: solveRT, key: makeKey("AppServF", 0), n: 100, ctx: ctx, resp: make(chan solveOut, 1)}
	if err := s.batch.submit(job); err != nil {
		t.Fatal(err)
	}
	select {
	case out := <-job.resp:
		if out.err == nil {
			t.Fatal("cancelled job was solved anyway")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled job never answered")
	}
}
