package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// FuzzDecodeRequest drives Service.Handler with arbitrary requests on
// the three query endpoints: a method (POST sends the payload as the
// JSON body, anything else is a GET with the payload as the query
// string), a path among /v1/predict, /v1/capacity and /v1/allocate,
// and the payload. The handler must never panic and must always answer
// with a JSON body: a 200 whose numbers are finite, or a 4xx/5xx
// errorResponse carrying a message.
//
// The corpus is seeded with the TestBadRequests inputs and one valid
// request per endpoint. Run it beyond the seeds with
//
//	go test -run '^$' -fuzz FuzzDecodeRequest -fuzztime 60s ./internal/serve
func FuzzDecodeRequest(f *testing.F) {
	for _, url := range badRequestURLs {
		path, query, _ := strings.Cut(url, "?")
		f.Add(http.MethodGet, path, query)
	}
	for _, req := range badAllocateRequests {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(http.MethodPost, "/v1/allocate", string(body))
	}
	f.Add(http.MethodGet, "/v1/predict", "arch=AppServF&clients=300&buy_pct=10&percentile=0.9")
	f.Add(http.MethodPost, "/v1/predict", `{"arch":"AppServS","clients":200,"method":"lqn","deadline_ms":10000000000000}`)
	f.Add(http.MethodGet, "/v1/capacity", "arch=AppServVF&goal_rt_s=0.5&method=lqn")
	f.Add(http.MethodPost, "/v1/capacity", `{"arch":"AppServF","goal_rt_s":0.2}`)
	f.Add(http.MethodPost, "/v1/allocate", `{"classes":[{"name":"gold","goal_rt_s":0.1,"clients":100}],"servers":[{"name":"a","arch":"AppServF","power":1}],"slack":1}`)

	// A bounded cache, short regress training and a short default
	// deadline keep each input's cold builds cheap.
	s := newTestService(f, func(c *Config) {
		c.CacheCapacity = 8
		c.RegressSimSeconds = 4
		c.DefaultDeadline = 2 * time.Second
	})
	h := s.Handler()

	f.Fuzz(func(t *testing.T, method, path, payload string) {
		switch path {
		case "/v1/predict", "/v1/capacity", "/v1/allocate":
		default:
			return
		}
		var r *http.Request
		if method == http.MethodPost {
			r = httptest.NewRequest(http.MethodPost, path, strings.NewReader(payload))
		} else {
			r = httptest.NewRequest(http.MethodGet, path, nil)
			r.URL.RawQuery = payload
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)

		body := w.Body.Bytes()
		if len(body) == 0 {
			t.Fatalf("%s %s %q: status %d with empty body", method, path, payload, w.Code)
		}
		if w.Code != http.StatusOK {
			var e errorResponse
			if w.Code < 400 || json.Unmarshal(body, &e) != nil || e.Error == "" {
				t.Fatalf("%s %s %q: status %d, body %q is no error response", method, path, payload, w.Code, body)
			}
			return
		}
		var resp any
		switch path {
		case "/v1/predict":
			resp = new(PredictResponse)
		case "/v1/capacity":
			resp = new(CapacityResponse)
		default:
			resp = new(AllocateResponse)
		}
		if err := json.Unmarshal(body, resp); err != nil {
			t.Fatalf("%s %s %q: 200 body %q does not decode: %v", method, path, payload, body, err)
		}
		if !allFinite(resp) {
			t.Fatalf("%s %s %q: 200 body %q carries a non-finite number", method, path, payload, body)
		}
	})
}

// allFinite reports whether every number in a decoded response is
// finite.
func allFinite(resp any) bool {
	finite := func(xs ...float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return false
			}
		}
		return true
	}
	switch r := resp.(type) {
	case *PredictResponse:
		return finite(r.Clients, r.BuyPct, r.Percentile, r.ResponseTimeS, r.BuildMS)
	case *CapacityResponse:
		return finite(r.GoalRTS, r.BuyPct, r.MaxClients, r.BuildMS)
	case *AllocateResponse:
		return finite(r.Slack, r.UsagePct)
	}
	return false
}
