package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"xsketch/internal/serve"
	"xsketch/internal/twig"
	"xsketch/internal/xmlgen"
	core "xsketch/internal/xsketch"
)

const testQuery = "t0 in movie, t1 in t0/actor"

// testConfig keeps retries fast and probes manual (huge interval) so
// tests drive state transitions deterministically via ProbeOnce.
func testConfig() Config {
	return Config{
		AttemptTimeout: 5 * time.Second,
		RetryBackoff:   time.Millisecond,
		ProbeInterval:  time.Hour,
		ProbeTimeout:   2 * time.Second,
	}
}

// newTestRouter builds a router over the given backends plus an httptest
// front end.
func newTestRouter(t *testing.T, cfg Config, backends ...string) (*Router, *httptest.Server) {
	t.Helper()
	rt, err := New(cfg, backends)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return rt, ts
}

// newStub builds a stub backend whose /estimate answers with the given
// status and body; other paths 404.
func newStub(t *testing.T, status int, body string) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/estimate" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		w.WriteHeader(status)
		w.Write([]byte(body))
	}))
	t.Cleanup(ts.Close)
	return ts
}

// replicaMaxConcurrent pins the test replicas' admission limit above the
// concurrency any router test drives at one replica (the bit-identity
// test sends up to 16 requests at once), so results never depend on the
// host's GOMAXPROCS-derived default and no replica sheds with 429.
const replicaMaxConcurrent = 64

// newTestReplica builds a real xserve replica over a shared sketch.
func newTestReplica(t *testing.T, sk *core.Sketch) *httptest.Server {
	t.Helper()
	cfg := serve.Config{MaxConcurrent: replicaMaxConcurrent}
	s, err := serve.New(cfg, []serve.Sketch{{Name: "imdb", Source: "test", Sketch: sk}})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func newTestSketch(t *testing.T) *core.Sketch {
	t.Helper()
	d := xmlgen.Generate("imdb", xmlgen.Config{Seed: 1, Scale: 0.02})
	return core.New(d, core.DefaultConfig())
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
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

// TestPassThroughStatuses checks that request-level client statuses from
// a replica relay unchanged — status, body, backpressure headers — and
// never trigger a retry.
func TestPassThroughStatuses(t *testing.T) {
	cases := []struct {
		status int
		body   string
	}{
		{http.StatusBadRequest, `{"error":"malformed query","trace_id":"x"}`},
		{http.StatusNotFound, `{"error":"unknown sketch","trace_id":"x"}`},
		{http.StatusRequestEntityTooLarge, `{"error":"body too large","trace_id":"x"}`},
		{http.StatusUnprocessableEntity, `{"error":"query planning failed","trace_id":"x"}`},
		{http.StatusTooManyRequests, `{"error":"shed","trace_id":"x"}`},
		{http.StatusGatewayTimeout, `{"error":"estimate timed out","trace_id":"x"}`},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprint(tc.status), func(t *testing.T) {
			primary := newStub(t, tc.status, tc.body)
			secondary := newStub(t, http.StatusOK, `{"estimate":1}`)
			rt, ts := newTestRouter(t, testConfig(), primary.URL, secondary.URL)
			// Pin the single candidate order by marking the secondary
			// draining, so the stubbed status is guaranteed to come from
			// `primary` regardless of where the key hashes.
			rt.setState(rt.backends[secondary.URL], stateDraining, "test pin")

			resp, body := postJSON(t, ts.URL+"/estimate", fmt.Sprintf(`{"sketch":"imdb","query":%q}`, testQuery))
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, tc.status, body)
			}
			if string(body) != tc.body {
				t.Errorf("body %q, want verbatim relay of %q", body, tc.body)
			}
			if tc.status == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
				t.Error("Retry-After header not relayed")
			}
			if v := rt.m.retries.Value(); v != 0 {
				t.Errorf("pass-through status triggered %d retries, want 0", v)
			}
		})
	}
}

// TestRouterOwn404And405 checks the router's own mux answers for unknown
// paths and wrong methods without touching any backend.
func TestRouterOwn404And405(t *testing.T) {
	primary := newStub(t, http.StatusOK, `{"estimate":1}`)
	rt, ts := newTestRouter(t, testConfig(), primary.URL)

	resp, _ := getBody(t, ts.URL+"/estimate") // GET on a POST-only route
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /estimate status %d, want 405", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/no-such-path", `{}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST /no-such-path status %d, want 404", resp.StatusCode)
	}
	if v := rt.m.shardReq.With(primary.URL).Value(); v != 0 {
		t.Errorf("router-level rejections reached the backend %d times", v)
	}
}

// TestRouterOwn413 checks the router enforces its own body limit before
// any fan-out.
func TestRouterOwn413(t *testing.T) {
	primary := newStub(t, http.StatusOK, `{"estimate":1}`)
	cfg := testConfig()
	cfg.MaxBodyBytes = 64
	_, ts := newTestRouter(t, cfg, primary.URL)
	resp, _ := postJSON(t, ts.URL+"/estimate",
		fmt.Sprintf(`{"sketch":"imdb","query":%q}`, strings.Repeat("x", 200)))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body status %d, want 413", resp.StatusCode)
	}
}

// TestRetryFailsOverToNextCandidate checks a 503 replica is retried once
// against the next ring candidate and the request still succeeds.
func TestRetryFailsOverToNextCandidate(t *testing.T) {
	bad := newStub(t, http.StatusServiceUnavailable, `{"error":"shutting down","trace_id":"x"}`)
	good := newStub(t, http.StatusOK, `{"estimate":42.5,"truncated":false,"trace_id":"y"}`)
	rt, ts := newTestRouter(t, testConfig(), bad.URL, good.URL)

	// Route only keys the bad backend owns, so every first attempt hits
	// it: the bad one answers 503 -> retry lands on the good one.
	// Arbitrary keys could all land on the good stub and never retry.
	var keys []string
	for i := 0; len(keys) < 8; i++ {
		if key := fmt.Sprintf("s%d", i); rt.ring.Owner(key) == bad.URL {
			keys = append(keys, key)
		}
	}
	for i, key := range keys {
		resp, body := postJSON(t, ts.URL+"/estimate",
			fmt.Sprintf(`{"sketch":%q,"query":%q}`, key, testQuery))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, resp.StatusCode, body)
		}
	}
	if rt.m.retries.Value() == 0 {
		t.Error("no retries counted although one backend always answers 503")
	}
	if rt.m.shardErr.With(bad.URL, errKindUnavailable).Value() == 0 {
		t.Error("no unavailable errors counted against the 503 backend")
	}
}

// TestExhaustedRetriesAnswer502 checks the router's own 502 when every
// candidate fails, and the exhausted error kind is counted.
func TestExhaustedRetriesAnswer502(t *testing.T) {
	b1 := newStub(t, http.StatusServiceUnavailable, `{"error":"nope","trace_id":"x"}`)
	b2 := newStub(t, http.StatusBadGateway, `{"error":"nope","trace_id":"x"}`)
	rt, ts := newTestRouter(t, testConfig(), b1.URL, b2.URL)

	resp, body := postJSON(t, ts.URL+"/estimate", fmt.Sprintf(`{"sketch":"imdb","query":%q}`, testQuery))
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502 (body %s)", resp.StatusCode, body)
	}
	var er struct {
		Error   string `json:"error"`
		TraceID string `json:"trace_id"`
	}
	if err := json.Unmarshal(body, &er); err != nil || er.Error == "" || er.TraceID == "" {
		t.Fatalf("502 body %s not a router error response (%v)", body, err)
	}
	exhausted := rt.m.shardErr.With(b1.URL, errKindExhausted).Value() +
		rt.m.shardErr.With(b2.URL, errKindExhausted).Value()
	if exhausted == 0 {
		t.Error("no exhausted error counted after total failure")
	}
	if rt.m.retries.Value() == 0 {
		t.Error("no retry counted before giving up")
	}
}

// TestTransportFailureMarksDownAndFailsOver kills one backend outright:
// requests must keep succeeding via the survivor, the dead backend must be
// marked down, and subsequent traffic must stop attempting it.
func TestTransportFailureMarksDownAndFailsOver(t *testing.T) {
	dead := newStub(t, http.StatusOK, `{"estimate":1}`)
	live := newStub(t, http.StatusOK, `{"estimate":2,"truncated":false,"trace_id":"y"}`)
	rt, ts := newTestRouter(t, testConfig(), dead.URL, live.URL)
	dead.Close()

	// Route only keys the dead backend owns, so every first attempt hits
	// it; arbitrary keys could all land on the survivor and never probe
	// the failure path.
	var keys []string
	for i := 0; len(keys) < 8; i++ {
		if key := fmt.Sprintf("s%d", i); rt.ring.Owner(key) == dead.URL {
			keys = append(keys, key)
		}
	}

	for i, key := range keys {
		resp, body := postJSON(t, ts.URL+"/estimate",
			fmt.Sprintf(`{"sketch":%q,"query":%q}`, key, testQuery))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, resp.StatusCode, body)
		}
	}
	if st := rt.BackendStates()[dead.URL]; st != "down" {
		t.Errorf("dead backend state %q, want down", st)
	}
	if rt.m.shardErr.With(dead.URL, errKindTransport).Value() == 0 {
		t.Error("no transport errors counted against the dead backend")
	}

	// Once down, the dead backend should no longer receive first attempts.
	before := rt.m.shardReq.With(dead.URL).Value()
	for _, key := range keys {
		postJSON(t, ts.URL+"/estimate", fmt.Sprintf(`{"sketch":%q,"query":%q}`, key, testQuery))
	}
	if after := rt.m.shardReq.With(dead.URL).Value(); after != before {
		t.Errorf("down backend still attempted: %d -> %d", before, after)
	}
}

// batchStub is a replica-shaped batch endpoint that answers each query
// with a fixed per-stub estimate, so merged results reveal which shard
// served each item.
func batchStub(t *testing.T, estimate float64) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`{"status":"ok","draining":false,"sketches":1,"uptime_seconds":1}`))
			return
		}
		if r.URL.Path == "/estimate" {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, `{"estimate":%g,"truncated":false,"trace_id":%q}`, estimate, r.Header.Get("X-Trace-Id"))
			return
		}
		if r.URL.Path != "/estimate/batch" {
			http.NotFound(w, r)
			return
		}
		var req struct {
			Sketch  string   `json:"sketch"`
			Queries []string `json:"queries"`
			Workers int      `json:"workers"`
			Explain []bool   `json:"explain"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		results := make([]json.RawMessage, len(req.Queries))
		for i := range results {
			results[i] = json.RawMessage(fmt.Sprintf(`{"estimate":%g,"truncated":false}`, estimate))
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"sketch": req.Sketch, "count": len(results), "results": results,
			"elapsed_seconds": 0.001, "trace_id": r.Header.Get("X-Trace-Id"),
		})
	}))
	t.Cleanup(ts.Close)
	return ts
}

// spreadQueries generates queries until both given shards own at least
// min items each, returning the queries and the per-shard ownership.
func spreadQueries(t *testing.T, rt *Router, sketch string, shards []string, min int) []string {
	t.Helper()
	var queries []string
	perShard := map[string]int{}
	short := func() bool {
		for _, s := range shards {
			if perShard[s] < min {
				return true
			}
		}
		return false
	}
	for i := 0; len(queries) < 256 && short(); i++ {
		q := fmt.Sprintf("t0 in movie, t1 in t0/actor%d", i)
		queries = append(queries, q)
		perShard[rt.ring.Owner(sketch+"\x00"+q)]++
	}
	if short() {
		t.Fatalf("could not spread queries over shards %v: %v", shards, perShard)
	}
	return queries
}

// TestBatchFailoverLosesNothing kills one of two shards outright: the
// batch must still answer 200 with every item estimated — the dead
// shard's sub-batch fails over to the survivor — and the failure must be
// visible in the retry and transport-error counters.
func TestBatchFailoverLosesNothing(t *testing.T) {
	alive := batchStub(t, 7)
	doomed := batchStub(t, 9)
	rt, ts := newTestRouter(t, testConfig(), alive.URL, doomed.URL)
	queries := spreadQueries(t, rt, "imdb", []string{alive.URL, doomed.URL}, 3)
	doomed.Close()

	reqBody, _ := json.Marshal(map[string]any{"sketch": "imdb", "queries": queries})
	resp, body := postJSON(t, ts.URL+"/estimate/batch", string(reqBody))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d, body %s", resp.StatusCode, body)
	}
	var br struct {
		Count   int `json:"count"`
		Results []struct {
			Estimate float64 `json:"estimate"`
			Error    string  `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatalf("unmarshal: %v (%s)", err, body)
	}
	if br.Count != len(queries) || len(br.Results) != len(queries) {
		t.Fatalf("count %d / %d results, want %d", br.Count, len(br.Results), len(queries))
	}
	for i, res := range br.Results {
		if res.Error != "" || res.Estimate != 7 {
			t.Errorf("item %d: estimate %v error %q — failover lost it", i, res.Estimate, res.Error)
		}
	}
	if rt.m.retries.Value() == 0 {
		t.Error("failover left no trace in xrouter_retry_total")
	}
	if rt.m.shardErr.With(doomed.URL, errKindTransport).Value() == 0 {
		t.Error("dead shard's transport failure not counted")
	}
}

// TestBatchShardFailureIsolation drives a group through total failure —
// its owner is dead AND its retry candidate refuses exactly that group —
// and checks the batch still answers 200: the failed group's items carry
// per-item errors while every other item survives intact.
func TestBatchShardFailureIsolation(t *testing.T) {
	// reject, once set, makes the alive stub answer 503 for any sub-batch
	// containing a rejected query — simulating the retry also failing for
	// the dead shard's group only.
	var mu sync.Mutex
	var reject func(q string) bool
	alive := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Sketch  string   `json:"sketch"`
			Queries []string `json:"queries"`
		}
		json.NewDecoder(r.Body).Decode(&req)
		mu.Lock()
		rej := reject
		mu.Unlock()
		if rej != nil {
			for _, q := range req.Queries {
				if rej(q) {
					w.Header().Set("Content-Type", "application/json")
					w.WriteHeader(http.StatusServiceUnavailable)
					w.Write([]byte(`{"error":"overloaded","trace_id":"x"}`))
					return
				}
			}
		}
		results := make([]json.RawMessage, len(req.Queries))
		for i := range results {
			results[i] = json.RawMessage(`{"estimate":7,"truncated":false}`)
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"sketch": req.Sketch, "count": len(results), "results": results,
			"elapsed_seconds": 0.001, "trace_id": "y",
		})
	}))
	t.Cleanup(alive.Close)
	doomed := batchStub(t, 9)
	rt, ts := newTestRouter(t, testConfig(), alive.URL, doomed.URL)
	queries := spreadQueries(t, rt, "imdb", []string{alive.URL, doomed.URL}, 3)
	doomed.Close()
	mu.Lock()
	reject = func(q string) bool { return rt.ring.Owner("imdb\x00"+q) == doomed.URL }
	mu.Unlock()

	reqBody, _ := json.Marshal(map[string]any{"sketch": "imdb", "queries": queries})
	resp, body := postJSON(t, ts.URL+"/estimate/batch", string(reqBody))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d, body %s", resp.StatusCode, body)
	}
	var br struct {
		Count   int `json:"count"`
		Results []struct {
			Estimate float64 `json:"estimate"`
			Error    string  `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatalf("unmarshal: %v (%s)", err, body)
	}
	okItems, errItems := 0, 0
	for i, res := range br.Results {
		if rt.ring.Owner("imdb\x00"+queries[i]) == alive.URL {
			if res.Error != "" || res.Estimate != 7 {
				t.Errorf("item %d (alive shard): estimate %v error %q", i, res.Estimate, res.Error)
			}
			okItems++
		} else {
			if res.Error == "" {
				t.Errorf("item %d (failed shard): no per-item error recorded", i)
			}
			errItems++
		}
	}
	if okItems == 0 || errItems == 0 {
		t.Fatalf("degenerate split: %d ok, %d errored", okItems, errItems)
	}
}

// TestBatchPassThroughClientError checks a request-level client error from
// a shard (e.g. unknown sketch) relays as the whole batch's answer.
func TestBatchPassThroughClientError(t *testing.T) {
	notFound := `{"error":"unknown sketch \"nope\"","trace_id":"x"}`
	mk := func() *httptest.Server {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusNotFound)
			w.Write([]byte(notFound))
		}))
		t.Cleanup(ts.Close)
		return ts
	}
	b1, b2 := mk(), mk()
	_, ts := newTestRouter(t, testConfig(), b1.URL, b2.URL)

	reqBody, _ := json.Marshal(map[string]any{
		"sketch": "nope", "queries": []string{testQuery, testQuery + "x", testQuery + "y"},
	})
	resp, body := postJSON(t, ts.URL+"/estimate/batch", string(reqBody))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404 pass-through (body %s)", resp.StatusCode, body)
	}
	if string(body) != notFound {
		t.Errorf("body %q, want verbatim relay of %q", body, notFound)
	}
}

// TestBatchRejectsBadShapes covers the router's own batch validation.
func TestBatchRejectsBadShapes(t *testing.T) {
	b := batchStub(t, 1)
	cfg := testConfig()
	cfg.MaxBatchQueries = 4
	_, ts := newTestRouter(t, cfg, b.URL)

	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed", `{"queries": nope}`, http.StatusBadRequest},
		{"empty", `{"sketch":"imdb","queries":[]}`, http.StatusBadRequest},
		{"too many", `{"sketch":"imdb","queries":["a","b","c","d","e"]}`, http.StatusRequestEntityTooLarge},
		{"explain mismatch", `{"sketch":"imdb","queries":["a","b"],"explain":[true]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/estimate/batch", tc.body)
			if resp.StatusCode != tc.want {
				t.Errorf("status %d, want %d (body %s)", resp.StatusCode, tc.want, body)
			}
		})
	}
}

// TestProbeClassification drives the three-state prober: healthy, then
// draining (no error counters fired), then down, then back to healthy via
// automatic re-inclusion.
func TestProbeClassification(t *testing.T) {
	var mu sync.Mutex
	mode := "ok"
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			http.NotFound(w, r)
			return
		}
		mu.Lock()
		m := mode
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		switch m {
		case "ok":
			w.WriteHeader(http.StatusOK)
			w.Write([]byte(`{"status":"ok","draining":false,"sketches":1,"uptime_seconds":1}`))
		case "draining":
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"status":"draining","draining":true,"sketches":1,"uptime_seconds":1}`))
		default:
			w.WriteHeader(http.StatusInternalServerError)
			w.Write([]byte(`boom`))
		}
	}))
	t.Cleanup(replica.Close)
	set := func(m string) { mu.Lock(); mode = m; mu.Unlock() }

	rt, _ := newTestRouter(t, testConfig(), replica.URL)
	ctx := t.Context()

	rt.ProbeOnce(ctx)
	if st := rt.BackendStates()[replica.URL]; st != "healthy" {
		t.Fatalf("after ok probe: state %q, want healthy", st)
	}

	set("draining")
	rt.ProbeOnce(ctx)
	if st := rt.BackendStates()[replica.URL]; st != "draining" {
		t.Fatalf("after draining probe: state %q, want draining", st)
	}
	// Draining is deliberate: it must not count as a shard error.
	for _, kind := range []string{errKindTransport, errKindUnavailable, errKindExhausted} {
		if v := rt.m.shardErr.With(replica.URL, kind).Value(); v != 0 {
			t.Errorf("draining probe fired %s error counter (%d)", kind, v)
		}
	}
	if rt.routableCount() != 0 {
		t.Errorf("draining backend still counted routable")
	}

	set("down")
	rt.ProbeOnce(ctx)
	if st := rt.BackendStates()[replica.URL]; st != "down" {
		t.Fatalf("after failing probe: state %q, want down", st)
	}

	set("ok")
	rt.ProbeOnce(ctx)
	if st := rt.BackendStates()[replica.URL]; st != "healthy" {
		t.Fatalf("after recovery probe: state %q, want healthy (automatic re-inclusion)", st)
	}
	if rt.routableCount() != 1 {
		t.Errorf("recovered backend not routable")
	}
}

// TestClassifyProbeTable pins the classification rules, including the
// fallback on the status string for replicas predating the Draining flag.
func TestClassifyProbeTable(t *testing.T) {
	cases := []struct {
		code int
		body string
		want backendState
	}{
		{200, `{"status":"ok"}`, stateHealthy},
		{200, ``, stateHealthy},
		{503, `{"status":"draining","draining":true}`, stateDraining},
		{503, `{"status":"draining"}`, stateDraining},
		{503, `{"status":"unavailable","draining":false}`, stateDown},
		{503, `not json`, stateDown},
		{500, `{"status":"ok"}`, stateDown},
		{404, ``, stateDown},
	}
	for _, tc := range cases {
		if got := classifyProbe(tc.code, []byte(tc.body)); got != tc.want {
			t.Errorf("classifyProbe(%d, %q) = %v, want %v", tc.code, tc.body, got, tc.want)
		}
	}
}

// TestRouterHealthz covers the router's own health states: ok, draining
// (machine-readable flag set), and unavailable when the fleet is gone.
func TestRouterHealthz(t *testing.T) {
	replica := newStub(t, http.StatusOK, `{"estimate":1}`)
	rt, ts := newTestRouter(t, testConfig(), replica.URL)

	decode := func(body []byte) routerHealth {
		var h routerHealth
		if err := json.Unmarshal(body, &h); err != nil {
			t.Fatalf("healthz unmarshal: %v (%s)", err, body)
		}
		return h
	}

	resp, body := getBody(t, ts.URL+"/healthz")
	h := decode(body)
	if resp.StatusCode != http.StatusOK || h.Status != "ok" || h.Draining || h.Healthy != 1 {
		t.Fatalf("healthy router: status %d body %+v", resp.StatusCode, h)
	}
	if len(h.Backends) != 1 || h.Backends[0].State != "healthy" {
		t.Errorf("backend listing %+v, want one healthy entry", h.Backends)
	}

	rt.SetDraining(true)
	resp, body = getBody(t, ts.URL+"/healthz")
	if h = decode(body); resp.StatusCode != http.StatusServiceUnavailable || h.Status != "draining" || !h.Draining {
		t.Fatalf("draining router: status %d body %+v", resp.StatusCode, h)
	}
	rt.SetDraining(false)

	rt.setState(rt.backends[replica.URL], stateDown, "test")
	resp, body = getBody(t, ts.URL+"/healthz")
	if h = decode(body); resp.StatusCode != http.StatusServiceUnavailable || h.Status != "unavailable" || h.Draining {
		t.Fatalf("fleetless router: status %d body %+v", resp.StatusCode, h)
	}
}

// TestTraceIDForwarding checks one trace ID flows client -> router ->
// replica and back out in the response header.
func TestTraceIDForwarding(t *testing.T) {
	var mu sync.Mutex
	var seen []string
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, r.Header.Get("X-Trace-Id"))
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"estimate":1,"truncated":false,"trace_id":"r"}`))
	}))
	t.Cleanup(replica.Close)
	_, ts := newTestRouter(t, testConfig(), replica.URL)

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/estimate",
		strings.NewReader(fmt.Sprintf(`{"sketch":"imdb","query":%q}`, testQuery)))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Trace-Id", "client-chosen-id")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Trace-Id"); got != "client-chosen-id" {
		t.Errorf("response trace ID %q, want client-chosen-id", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 1 || seen[0] != "client-chosen-id" {
		t.Errorf("replica saw trace IDs %v, want the client's", seen)
	}
}

// TestBitIdentityThroughRouter is the end-to-end determinism gate: single
// and batch estimates served through router -> replica -> plan cache must
// be Float64bits-identical to direct local estimation, under concurrency
// (run with -race).
func TestBitIdentityThroughRouter(t *testing.T) {
	sk := newTestSketch(t)
	r1 := newTestReplica(t, sk)
	r2 := newTestReplica(t, sk)
	_, ts := newTestRouter(t, testConfig(), r1.URL, r2.URL)

	queries := []string{
		testQuery,
		"t0 in movie, t1 in t0/actor, t2 in t0/director",
		"t0 in movie, t1 in t0//name",
		"t0 in movie, t1 in t0/actor, t2 in t1/name",
	}
	want := make([]float64, len(queries))
	for i, q := range queries {
		want[i] = sk.EstimateQueryResult(twig.MustParse(q)).Estimate
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers*2)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				i := (w + rep) % len(queries)
				resp, body := postJSON(t, ts.URL+"/estimate",
					fmt.Sprintf(`{"sketch":"imdb","query":%q}`, queries[i]))
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("estimate status %d: %s", resp.StatusCode, body)
					return
				}
				var er struct {
					Estimate float64 `json:"estimate"`
				}
				if err := json.Unmarshal(body, &er); err != nil {
					errs <- err
					return
				}
				if math.Float64bits(er.Estimate) != math.Float64bits(want[i]) {
					errs <- fmt.Errorf("query %d: routed %v != local %v", i, er.Estimate, want[i])
					return
				}
			}
		}(w)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			qb, _ := json.Marshal(queries)
			resp, body := postJSON(t, ts.URL+"/estimate/batch",
				fmt.Sprintf(`{"sketch":"imdb","queries":%s}`, qb))
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("batch status %d: %s", resp.StatusCode, body)
				return
			}
			var br struct {
				Results []struct {
					Estimate float64 `json:"estimate"`
					Error    string  `json:"error"`
				} `json:"results"`
			}
			if err := json.Unmarshal(body, &br); err != nil {
				errs <- err
				return
			}
			if len(br.Results) != len(queries) {
				errs <- fmt.Errorf("batch returned %d results, want %d", len(br.Results), len(queries))
				return
			}
			for i, res := range br.Results {
				if res.Error != "" {
					errs <- fmt.Errorf("batch item %d errored: %s", i, res.Error)
					return
				}
				if math.Float64bits(res.Estimate) != math.Float64bits(want[i]) {
					errs <- fmt.Errorf("batch item %d: routed %v != local %v", i, res.Estimate, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSketchesProxy checks GET /sketches relays a replica's listing.
func TestSketchesProxy(t *testing.T) {
	sk := newTestSketch(t)
	r1 := newTestReplica(t, sk)
	_, ts := newTestRouter(t, testConfig(), r1.URL)
	resp, body := getBody(t, ts.URL+"/sketches")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !bytes.Contains(body, []byte("imdb")) {
		t.Errorf("sketch listing %s does not mention imdb", body)
	}
}

// TestAuditSampleHeaderForwarded checks the router passes the replicas'
// X-Audit-Sample override through on both estimate paths (and omits it
// when the client did not send one), so fleet-wide accuracy sampling is
// controlled identically through either tier.
func TestAuditSampleHeaderForwarded(t *testing.T) {
	var mu sync.Mutex
	seen := make(map[string][]string)
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen[r.URL.Path] = append(seen[r.URL.Path], r.Header.Get("X-Audit-Sample"))
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		switch r.URL.Path {
		case "/estimate":
			w.Write([]byte(`{"sketch":"imdb","estimate":1,"trace_id":"x"}`))
		case "/estimate/batch":
			w.Write([]byte(`{"sketch":"imdb","count":1,"results":[{"estimate":1,"truncated":false}],"trace_id":"x"}`))
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(stub.Close)
	_, ts := newTestRouter(t, testConfig(), stub.URL)

	send := func(path, body, header string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatalf("request: %v", err)
		}
		if header != "" {
			req.Header.Set("X-Audit-Sample", header)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d", path, resp.StatusCode)
		}
	}

	est := fmt.Sprintf(`{"sketch":"imdb","query":%q}`, testQuery)
	batch := fmt.Sprintf(`{"sketch":"imdb","queries":[%q]}`, testQuery)
	send("/estimate", est, "1")
	send("/estimate", est, "")
	send("/estimate/batch", batch, "0")

	mu.Lock()
	defer mu.Unlock()
	if got := seen["/estimate"]; len(got) != 2 || got[0] != "1" || got[1] != "" {
		t.Errorf("/estimate saw audit headers %q, want [1 \"\"]", got)
	}
	if got := seen["/estimate/batch"]; len(got) != 1 || got[0] != "0" {
		t.Errorf("/estimate/batch saw audit headers %q, want [0]", got)
	}
}
