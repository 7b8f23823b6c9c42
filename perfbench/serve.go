package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync/atomic"

	"perfpred/internal/instrument"
	"perfpred/internal/obs"
	"perfpred/internal/serve"
	"perfpred/internal/workload"
)

// Trace headers carry the client span and request id to the server-side
// middleware.
const (
	hdrSpan = "X-Perfbench-Span"
	hdrReq  = "X-Perfbench-Req"
)

// serviceConfig is the production service configuration cmd/predload
// load-tests: the case-study architectures, percentile scales
// calibrated per key from a fixed-seed simulator run, default bounds.
func serviceConfig() serve.Config {
	return serve.Config{
		Archs:   workload.CaseStudyServers(),
		DB:      workload.CaseStudyDB(),
		Demands: workload.CaseStudyDemands(),
	}
}

// fixture is a serve.Service behind a loopback HTTP server, with a
// client whose connections are capped at the core count.
type fixture struct {
	svc       *serve.Service
	srv       *httptest.Server
	client    *http.Client
	transport *http.Transport
	// tr, when set, makes the middleware record a server-side span
	// around Service.Handler for every request.
	tr atomic.Pointer[tracer]
}

// startFixture starts a service over handler, which defaults to the
// service's own.
func startFixture(handler func(*serve.Service) http.Handler) (*fixture, error) {
	svc, err := serve.New(serviceConfig())
	if err != nil {
		return nil, err
	}
	f := &fixture{svc: svc}
	h := svc.Handler()
	if handler != nil {
		h = handler(svc)
	}
	f.srv = httptest.NewServer(f.middleware(h))
	n := runtime.NumCPU()
	f.transport = &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true}
	f.client = &http.Client{Transport: f.transport}
	return f, nil
}

// middleware records the server-side span of a traced request.
func (f *fixture) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := f.tr.Load()
		if tr == nil {
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		sp := tr.start("serve.handler", parent, req)
		next.ServeHTTP(w, r)
		sp.end()
	})
}

// close stops the HTTP server first, then the service's batch workers.
func (f *fixture) close() {
	f.transport.CloseIdleConnections()
	f.srv.Close()
	f.svc.Close()
}

// post sends one JSON request and reads the whole reply. When sp is a
// traced span its id and req travel in the trace headers.
func (f *fixture) post(path string, body []byte, sp openSpan) reply {
	req, err := http.NewRequest(http.MethodPost, f.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	if sp.t != nil {
		req.Header.Set(hdrSpan, strconv.FormatInt(sp.s.ID, 10))
		req.Header.Set(hdrReq, strconv.FormatInt(sp.s.Req, 10))
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return reply{err: err}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return reply{resp.StatusCode, b, err}
}

// reply is one HTTP exchange's outcome.
type reply struct {
	code int
	body []byte
	err  error
}

// inProcess is the *http.Request a direct Service call takes; the
// service reads only its context.
func inProcess() *http.Request {
	return (&http.Request{}).WithContext(context.Background())
}

// withObs runs fn with every package's obs instrumentation on a fresh
// registry and returns the registry's snapshot.
func withObs(fn func()) obs.Snapshot {
	reg := obs.NewRegistry()
	instrument.EnableAll(reg)
	fn()
	instrument.EnableAll(nil)
	return reg.Snapshot()
}

// histMean is a histogram's mean observation (0 when empty).
func histMean(s obs.Snapshot, name string) float64 {
	h := s.Histograms[name]
	return ratio(h.Sum, float64(h.Count))
}
