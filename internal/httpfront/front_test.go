package httpfront_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"xsketch/internal/httpfront"
	"xsketch/internal/router"
	"xsketch/internal/serve"
	"xsketch/internal/xmlgen"
	core "xsketch/internal/xsketch"
)

const (
	testQuery  = "t0 in movie, t1 in t0/actor"
	bodyLimit  = 4096
	batchLimit = 2
)

// front is one tier under test: its base URL and the prefix of its
// requests_total family.
type front struct {
	name, url, family string
}

// newFronts starts a replica and a router in front of it, both with the
// same small body and batch limits.
func newFronts(t *testing.T) []front {
	t.Helper()
	sk := core.New(xmlgen.Generate("imdb", xmlgen.Config{Seed: 1, Scale: 0.02}), core.DefaultConfig())
	srv, err := serve.New(serve.Config{MaxConcurrent: 8, MaxBodyBytes: bodyLimit, MaxBatchQueries: batchLimit},
		[]serve.Sketch{{Name: "imdb", Source: "test", Sketch: sk}})
	if err != nil {
		t.Fatal(err)
	}
	replica := httptest.NewServer(srv.Handler())
	t.Cleanup(replica.Close)
	rt, err := router.New(router.Config{MaxBodyBytes: bodyLimit, MaxBatchQueries: batchLimit, ProbeInterval: time.Hour},
		[]string{replica.URL})
	if err != nil {
		t.Fatal(err)
	}
	routed := httptest.NewServer(rt.Handler())
	t.Cleanup(routed.Close)
	return []front{
		{name: "serve", url: replica.URL, family: "xserve_requests_total"},
		{name: "router", url: routed.URL, family: "xrouter_requests_total"},
	}
}

// requestCount scrapes the tier's requests_total{path,code} series (0
// when it does not exist yet).
func requestCount(t *testing.T, f front, path string, code int) float64 {
	t.Helper()
	resp, err := http.Get(f.url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	series := fmt.Sprintf("%s{path=%q,code=\"%d\"} ", f.family, path, code)
	for _, line := range strings.Split(string(text), "\n") {
		if v, ok := strings.CutPrefix(line, series); ok {
			n, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("series %q: %v", line, err)
			}
			return n
		}
	}
	return 0
}

// TestSharedFront runs the same requests against a replica and a router
// in front of it: both tiers must assign and echo trace IDs, count the
// request by path and status, and answer oversized bodies and bad batch
// shapes with the same status and error text.
func TestSharedFront(t *testing.T) {
	fronts := newFronts(t)
	point := fmt.Sprintf(`{"query":%q}`, testQuery)
	cases := []struct {
		name    string
		path    string
		traceID string // sent as X-Trace-Id when non-empty
		body    string
		code    int
		err     string // the error text of a non-200 answer
	}{
		{name: "client trace ID echoed", path: "/estimate", traceID: "client-trace-1", body: point, code: http.StatusOK},
		{name: "trace ID assigned", path: "/estimate", body: point, code: http.StatusOK},
		{name: "oversized body", path: "/estimate",
			body: fmt.Sprintf(`{"query":%q}`, strings.Repeat("x", bodyLimit)),
			code: http.StatusRequestEntityTooLarge, err: fmt.Sprintf("request body exceeds %d bytes", bodyLimit)},
		{name: "empty batch", path: "/estimate/batch", body: `{"queries":[]}`,
			code: http.StatusBadRequest, err: "empty batch"},
		{name: "over-limit batch", path: "/estimate/batch",
			body: fmt.Sprintf(`{"queries":[%q,%q,%q]}`, testQuery, testQuery, testQuery),
			code: http.StatusRequestEntityTooLarge, err: "batch of 3 queries exceeds limit 2"},
		{name: "mismatched explain", path: "/estimate/batch",
			body: fmt.Sprintf(`{"queries":[%q,%q],"explain":[true]}`, testQuery, testQuery),
			code: http.StatusBadRequest, err: "explain flags length 1 != queries length 2"},
	}
	for _, tc := range cases {
		for _, f := range fronts {
			t.Run(tc.name+"/"+f.name, func(t *testing.T) {
				before := requestCount(t, f, tc.path, tc.code)
				req, err := http.NewRequest(http.MethodPost, f.url+tc.path, strings.NewReader(tc.body))
				if err != nil {
					t.Fatal(err)
				}
				if tc.traceID != "" {
					req.Header.Set(httpfront.TraceIDHeader, tc.traceID)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != tc.code {
					t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, tc.code, body)
				}
				var got struct {
					Error   string `json:"error"`
					TraceID string `json:"trace_id"`
				}
				if err := json.Unmarshal(body, &got); err != nil {
					t.Fatalf("body is not JSON: %v (%s)", err, body)
				}
				if got.Error != tc.err {
					t.Errorf("error %q, want %q", got.Error, tc.err)
				}
				tid := resp.Header.Get(httpfront.TraceIDHeader)
				switch {
				case tc.traceID != "" && tid != tc.traceID:
					t.Errorf("trace ID header %q, want the client's %q", tid, tc.traceID)
				case tid == "":
					t.Error("no trace ID assigned")
				}
				if got.TraceID != tid {
					t.Errorf("body trace_id %q != header %q", got.TraceID, tid)
				}
				if after := requestCount(t, f, tc.path, tc.code); after != before+1 {
					t.Errorf("%s{path=%q,code=\"%d\"} went %v -> %v, want +1", f.family, tc.path, tc.code, before, after)
				}
			})
		}
	}
}
