package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"xsketch/internal/httpfront"
	"xsketch/internal/twig"
	"xsketch/internal/xmlgen"
	core "xsketch/internal/xsketch"
)

const testQuery = "t0 in movie, t1 in t0/actor"

// newTestSketch builds a small IMDB sketch shared-safely across subtests.
func newTestSketch(t *testing.T) *core.Sketch {
	t.Helper()
	d := xmlgen.Generate("imdb", xmlgen.Config{Seed: 1, Scale: 0.02})
	return core.New(d, core.DefaultConfig())
}

// newTestServer wires a sketch into a Server and an httptest front end.
// mutate, when non-nil, adjusts the config before construction.
func newTestServer(t *testing.T, sk *core.Sketch, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg, []Sketch{{Name: "imdb", Source: "test", Sketch: sk}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestEstimateSuccessBitIdentical(t *testing.T) {
	sk := newTestSketch(t)
	want := sk.EstimateQueryResult(twig.MustParse(testQuery))
	_, ts := newTestServer(t, sk, nil)

	resp, body := postJSON(t, ts.URL+"/estimate", fmt.Sprintf(`{"sketch":"imdb","query":%q}`, testQuery))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	var er estimateResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("unmarshal: %v (%s)", err, body)
	}
	// encoding/json emits the shortest representation that round-trips, so
	// the served float must decode to the same bits as the local estimate.
	if math.Float64bits(er.Estimate) != math.Float64bits(want.Estimate) {
		t.Errorf("served estimate %v != local %v", er.Estimate, want.Estimate)
	}
	if er.Truncated != want.Truncated {
		t.Errorf("served truncated %v != local %v", er.Truncated, want.Truncated)
	}
	if er.TraceID == "" {
		t.Error("response missing trace_id")
	}
	if got := resp.Header.Get("X-Trace-Id"); got != er.TraceID {
		t.Errorf("header trace ID %q != body trace ID %q", got, er.TraceID)
	}
}

func TestEstimateOmittedSketchNameWithSingleSketch(t *testing.T) {
	_, ts := newTestServer(t, newTestSketch(t), nil)
	resp, body := postJSON(t, ts.URL+"/estimate", fmt.Sprintf(`{"query":%q}`, testQuery))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
}

func TestEstimateMalformedTwig(t *testing.T) {
	_, ts := newTestServer(t, newTestSketch(t), nil)
	resp, body := postJSON(t, ts.URL+"/estimate", `{"query":"t0 in in in"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (body %s)", resp.StatusCode, body)
	}
	var er httpfront.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("error body is not JSON: %v (%s)", err, body)
	}
	if !strings.Contains(er.Error, "malformed twig query") {
		t.Errorf("error %q does not mention the malformed query", er.Error)
	}
}

func TestEstimateMalformedJSON(t *testing.T) {
	_, ts := newTestServer(t, newTestSketch(t), nil)
	resp, _ := postJSON(t, ts.URL+"/estimate", `{"query": nope}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

func TestEstimateUnknownSketch(t *testing.T) {
	_, ts := newTestServer(t, newTestSketch(t), nil)
	resp, body := postJSON(t, ts.URL+"/estimate", fmt.Sprintf(`{"sketch":"nope","query":%q}`, testQuery))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404 (body %s)", resp.StatusCode, body)
	}
}

func TestEstimateWrongMethod(t *testing.T) {
	_, ts := newTestServer(t, newTestSketch(t), nil)
	resp, _ := getBody(t, ts.URL+"/estimate")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status %d, want 405", resp.StatusCode)
	}
}

func TestEstimateOversizedBody(t *testing.T) {
	_, ts := newTestServer(t, newTestSketch(t), func(c *Config) { c.MaxBodyBytes = 64 })
	big := fmt.Sprintf(`{"query":%q,"sketch":"imdb"}`, strings.Repeat("x", 200))
	resp, body := postJSON(t, ts.URL+"/estimate", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413 (body %s)", resp.StatusCode, body)
	}
}

func TestEstimateTimeout(t *testing.T) {
	_, ts := newTestServer(t, newTestSketch(t), func(c *Config) { c.RequestTimeout = time.Nanosecond })
	resp, body := postJSON(t, ts.URL+"/estimate", fmt.Sprintf(`{"query":%q}`, testQuery))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (body %s)", resp.StatusCode, body)
	}
}

func TestEstimateShedsAtConcurrencyCap(t *testing.T) {
	s, ts := newTestServer(t, newTestSketch(t), func(c *Config) { c.MaxConcurrent = 2 })
	// Occupy every slot directly; the next request must be shed, not queued.
	s.sem <- struct{}{}
	s.sem <- struct{}{}
	defer func() { <-s.sem; <-s.sem }()

	resp, body := postJSON(t, ts.URL+"/estimate", fmt.Sprintf(`{"query":%q}`, testQuery))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	if got := s.m.shed.Value(); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}
}

func TestBatchMatchesSingleEstimates(t *testing.T) {
	sk := newTestSketch(t)
	queries := []string{
		"t0 in movie, t1 in t0/actor",
		"t0 in movie/type",
		"t0 in movie, t1 in t0/actor, t2 in t0/type",
	}
	want := make([]core.EstimateResult, len(queries))
	for i, qs := range queries {
		want[i] = sk.EstimateQueryResult(twig.MustParse(qs))
	}
	_, ts := newTestServer(t, sk, nil)

	reqBody, _ := json.Marshal(batchRequest{Queries: queries, Workers: 2})
	resp, body := postJSON(t, ts.URL+"/estimate/batch", string(reqBody))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	var br batchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if br.Count != len(queries) || len(br.Results) != len(queries) {
		t.Fatalf("count %d / %d results, want %d", br.Count, len(br.Results), len(queries))
	}
	for i, res := range br.Results {
		if math.Float64bits(res.Estimate) != math.Float64bits(want[i].Estimate) {
			t.Errorf("query %d: served %v != local %v", i, res.Estimate, want[i].Estimate)
		}
	}
}

func TestBatchEmpty(t *testing.T) {
	_, ts := newTestServer(t, newTestSketch(t), nil)
	resp, _ := postJSON(t, ts.URL+"/estimate/batch", `{"queries":[]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

func TestBatchOverLimit(t *testing.T) {
	_, ts := newTestServer(t, newTestSketch(t), func(c *Config) { c.MaxBatchQueries = 2 })
	reqBody, _ := json.Marshal(batchRequest{Queries: []string{testQuery, testQuery, testQuery}})
	resp, _ := postJSON(t, ts.URL+"/estimate/batch", string(reqBody))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

// TestBatchMalformedQueryNamesIndex checks that a malformed batch answers
// 400 naming the lowest bad index, although items are parsed on the batch
// pool in any order.
func TestBatchMalformedQueryNamesIndex(t *testing.T) {
	_, ts := newTestServer(t, newTestSketch(t), nil)
	for _, tc := range []struct {
		queries []string
		workers int
		want    string
	}{
		{[]string{testQuery, "t0 in"}, 0, "malformed twig query 1: "},
		{[]string{testQuery, testQuery, testQuery, "t0 in in in", testQuery, "t0 in", testQuery}, 4, "malformed twig query 3: "},
		{[]string{"t0 in", testQuery, "t0 in in in"}, 1, "malformed twig query 0: "},
	} {
		reqBody, _ := json.Marshal(batchRequest{Queries: tc.queries, Workers: tc.workers})
		resp, body := postJSON(t, ts.URL+"/estimate/batch", string(reqBody))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%q: status %d, want 400", tc.queries, resp.StatusCode)
		}
		var er httpfront.ErrorResponse
		json.Unmarshal(body, &er)
		if !strings.HasPrefix(er.Error, tc.want) {
			t.Errorf("%q: error %q does not start with %q", tc.queries, er.Error, tc.want)
		}
	}
}

func TestSketchesListing(t *testing.T) {
	sk := newTestSketch(t)
	// Prime the estimator cache so the snapshot shows activity.
	sk.EstimateQueryResult(twig.MustParse(testQuery))
	_, ts := newTestServer(t, sk, nil)

	resp, body := getBody(t, ts.URL+"/sketches")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var infos []sketchInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		t.Fatalf("unmarshal: %v (%s)", err, body)
	}
	if len(infos) != 1 || infos[0].Name != "imdb" {
		t.Fatalf("listing %+v, want one sketch named imdb", infos)
	}
	if infos[0].Nodes == 0 || infos[0].SizeBytes == 0 {
		t.Errorf("listing has zero nodes/size: %+v", infos[0])
	}
	if infos[0].Estimator.Misses == 0 {
		t.Errorf("estimator snapshot shows no misses after a primed estimate: %+v", infos[0].Estimator)
	}
}

func TestHealthzAndDraining(t *testing.T) {
	s, ts := newTestServer(t, newTestSketch(t), nil)
	resp, body := getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	var h healthResponse
	if err := json.Unmarshal(body, &h); err != nil || h.Status != "ok" {
		t.Fatalf("healthz body %s (err %v)", body, err)
	}
	if h.Draining {
		t.Error("healthy healthz body claims draining")
	}

	s.SetDraining(true)
	resp, body = getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining status %d, want 503 (body %s)", resp.StatusCode, body)
	}
	json.Unmarshal(body, &h)
	if h.Status != "draining" {
		t.Errorf("draining status %q, want draining", h.Status)
	}
	if !h.Draining {
		t.Error("draining healthz body missing draining:true — a prober cannot tell drain from dead")
	}
}

// TestHealthzDrainProbeOrdering pins the drain/probe contract a router
// relies on: the 503 flip and the draining:true body land atomically with
// SetDraining, and flipping back restores a clean 200 ok body. A prober
// must never observe 503 without the draining marker on a live replica.
func TestHealthzDrainProbeOrdering(t *testing.T) {
	s, ts := newTestServer(t, newTestSketch(t), nil)
	for i := 0; i < 3; i++ {
		s.SetDraining(true)
		resp, body := getBody(t, ts.URL+"/healthz")
		var h healthResponse
		if err := json.Unmarshal(body, &h); err != nil {
			t.Fatalf("healthz body %s: %v", body, err)
		}
		if resp.StatusCode != http.StatusServiceUnavailable || !h.Draining {
			t.Fatalf("round %d: draining replica answered %d draining=%v, want 503 draining=true",
				i, resp.StatusCode, h.Draining)
		}
		s.SetDraining(false)
		resp, body = getBody(t, ts.URL+"/healthz")
		if err := json.Unmarshal(body, &h); err != nil {
			t.Fatalf("healthz body %s: %v", body, err)
		}
		if resp.StatusCode != http.StatusOK || h.Draining || h.Status != "ok" {
			t.Fatalf("round %d: un-drained replica answered %d status=%q draining=%v, want 200 ok false",
				i, resp.StatusCode, h.Status, h.Draining)
		}
	}
}

func TestClientSuppliedTraceID(t *testing.T) {
	_, ts := newTestServer(t, newTestSketch(t), nil)
	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Trace-Id", "deadbeef")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Trace-Id"); got != "deadbeef" {
		t.Errorf("echoed trace ID %q, want deadbeef", got)
	}
}

func TestPprofMounted(t *testing.T) {
	_, ts := newTestServer(t, newTestSketch(t), func(c *Config) { c.EnablePprof = true })
	resp, _ := getBody(t, ts.URL+"/debug/pprof/cmdline")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline status %d", resp.StatusCode)
	}
}

func TestConcurrentEstimatesBitIdentical(t *testing.T) {
	// The determinism claim end to end: many goroutines hammering one
	// sketch over HTTP all receive the exact bits a cold local estimate
	// produces. Run under -race in CI.
	sk := newTestSketch(t)
	want := core.New(xmlgen.Generate("imdb", xmlgen.Config{Seed: 1, Scale: 0.02}), core.DefaultConfig()).
		EstimateQueryResult(twig.MustParse(testQuery))
	const goroutines, rounds = 8, 5
	// Admit every goroutine at once: shedding is not under test here, and
	// the default cap (2 × GOMAXPROCS) would answer some of them 429.
	_, ts := newTestServer(t, sk, func(c *Config) { c.MaxConcurrent = 4 * goroutines })

	errc := make(chan error, goroutines*rounds)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				resp, err := http.Post(ts.URL+"/estimate", "application/json",
					strings.NewReader(fmt.Sprintf(`{"query":%q}`, testQuery)))
				if err != nil {
					errc <- err
					return
				}
				var er estimateResponse
				err = json.NewDecoder(resp.Body).Decode(&er)
				resp.Body.Close()
				if err != nil {
					errc <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("status %d", resp.StatusCode)
					return
				}
				if math.Float64bits(er.Estimate) != math.Float64bits(want.Estimate) {
					errc <- fmt.Errorf("estimate %v != %v", er.Estimate, want.Estimate)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	sk := newTestSketch(t)
	entered := make(chan struct{})
	release := make(chan struct{})
	s, err := New(Config{}, []Sketch{{Name: "imdb", Sketch: sk}})
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	s.testHookEstimate = func() {
		once.Do(func() {
			close(entered)
			<-release
		})
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Park one estimate inside the handler.
	reqDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/estimate", "application/json",
			strings.NewReader(fmt.Sprintf(`{"query":%q}`, testQuery)))
		if err != nil {
			reqDone <- -1
			return
		}
		resp.Body.Close()
		reqDone <- resp.StatusCode
	}()
	<-entered

	// Begin the drain: mark unhealthy, then shut the listener down. The
	// shutdown must wait for the parked request instead of killing it.
	s.SetDraining(true)
	shutDone := make(chan error, 1)
	go func() { shutDone <- ts.Config.Shutdown(context.Background()) }()

	select {
	case err := <-shutDone:
		t.Fatalf("shutdown returned (%v) while a request was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	if err := <-shutDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if code := <-reqDone; code != http.StatusOK {
		t.Fatalf("in-flight request finished with %d, want 200", code)
	}
}
