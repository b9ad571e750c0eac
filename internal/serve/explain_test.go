package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"xsketch/internal/httpfront"
	"xsketch/internal/twig"
)

func TestEstimateExplain(t *testing.T) {
	sk := newTestSketch(t)
	want := sk.EstimateQuery(twig.MustParse(testQuery))
	_, ts := newTestServer(t, sk, nil)

	resp, body := postJSON(t, ts.URL+"/estimate?explain=true",
		fmt.Sprintf(`{"sketch":"imdb","query":%q}`, testQuery))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	var er estimateResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if er.Estimate != want {
		t.Errorf("traced estimate %v != untraced %v", er.Estimate, want)
	}
	ex := er.Explanation
	if ex == nil {
		t.Fatal("explanation missing from ?explain=true response")
	}
	if ex.Version != 2 {
		t.Errorf("explanation version %d, want 2", ex.Version)
	}
	if ex.Estimate != er.Estimate {
		t.Errorf("explanation estimate %v != response estimate %v", ex.Estimate, er.Estimate)
	}
	if len(ex.Embeddings) == 0 {
		t.Fatal("explanation has no embeddings")
	}
	sum := 0.0
	for _, em := range ex.Embeddings {
		if em.Root == nil {
			t.Fatal("embedding trace without a root node")
		}
		sum += em.Estimate
	}
	if sum != ex.Estimate {
		t.Errorf("embedding estimates sum %v != total %v", sum, ex.Estimate)
	}
}

func TestEstimateExplainOmittedByDefault(t *testing.T) {
	_, ts := newTestServer(t, newTestSketch(t), nil)
	resp, body := postJSON(t, ts.URL+"/estimate",
		fmt.Sprintf(`{"sketch":"imdb","query":%q}`, testQuery))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if _, ok := raw["explanation"]; ok {
		t.Error("explanation present without ?explain=true")
	}
}

func TestBatchExplainPerItem(t *testing.T) {
	sk := newTestSketch(t)
	_, ts := newTestServer(t, sk, nil)
	const second = "t0 in movie, t1 in t0/year"
	wantFirst := sk.EstimateQuery(twig.MustParse(testQuery))
	wantSecond := sk.EstimateQuery(twig.MustParse(second))

	resp, body := postJSON(t, ts.URL+"/estimate/batch",
		fmt.Sprintf(`{"queries":[%q,%q],"explain":[true,false]}`, testQuery, second))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	var br batchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if br.Count != 2 || len(br.Results) != 2 {
		t.Fatalf("count %d, results %d, want 2/2", br.Count, len(br.Results))
	}
	if br.Results[0].Estimate != wantFirst || br.Results[1].Estimate != wantSecond {
		t.Errorf("estimates (%v, %v), want (%v, %v)",
			br.Results[0].Estimate, br.Results[1].Estimate, wantFirst, wantSecond)
	}
	if br.Results[0].Explanation == nil {
		t.Error("flagged item missing explanation")
	} else if br.Results[0].Explanation.Estimate != br.Results[0].Estimate {
		t.Errorf("explanation estimate %v != item estimate %v",
			br.Results[0].Explanation.Estimate, br.Results[0].Estimate)
	}
	if br.Results[1].Explanation != nil {
		t.Error("unflagged item carries an explanation")
	}
}

func TestBatchExplainLengthMismatch(t *testing.T) {
	_, ts := newTestServer(t, newTestSketch(t), nil)
	resp, body := postJSON(t, ts.URL+"/estimate/batch",
		fmt.Sprintf(`{"queries":[%q,%q],"explain":[true]}`, testQuery, testQuery))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400; body %s", resp.StatusCode, body)
	}
}

// TestEstimateExplainConcurrent hammers the traced path from many
// goroutines; under -race this exercises recorder isolation across
// concurrent requests sharing one sketch.
func TestEstimateExplainConcurrent(t *testing.T) {
	sk := newTestSketch(t)
	want := sk.EstimateQuery(twig.MustParse(testQuery))
	const workers = 16
	// Admit every worker at once: shedding is not under test here, and the
	// default cap (2 × GOMAXPROCS) would answer some of them 429.
	_, ts := newTestServer(t, sk, func(c *Config) { c.MaxConcurrent = 4 * workers })

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// postJSON fails the test via t.Fatalf, which must not run on
			// this goroutine; do the request by hand and report over errs.
			resp, err := http.Post(ts.URL+"/estimate?explain=true", "application/json",
				strings.NewReader(fmt.Sprintf(`{"query":%q}`, testQuery)))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var er estimateResponse
			if derr := json.NewDecoder(resp.Body).Decode(&er); derr != nil {
				errs <- derr
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			if er.Estimate != want || er.Explanation == nil || er.Explanation.Estimate != want {
				errs <- fmt.Errorf("estimate %v (explanation %v), want %v",
					er.Estimate, er.Explanation, want)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestBatchExplainErrorIsolation asserts one explain item's failure is
// reported on that item alone: the batch still answers 200, estimates for
// every other item are present in order, and only the failed slot carries
// an error.
func TestBatchExplainErrorIsolation(t *testing.T) {
	sk := newTestSketch(t)
	s, ts := newTestServer(t, sk, nil)
	const second = "t0 in movie, t1 in t0/year"
	wantFirst := sk.EstimateQuery(twig.MustParse(testQuery))
	wantThird := sk.EstimateQuery(twig.MustParse(second))
	s.testHookExplainItem = func(i int) error {
		if i == 1 {
			return fmt.Errorf("injected explain failure")
		}
		return nil
	}

	resp, body := postJSON(t, ts.URL+"/estimate/batch",
		fmt.Sprintf(`{"queries":[%q,%q,%q],"explain":[true,true,false]}`, testQuery, testQuery, second))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 despite item failure; body %s", resp.StatusCode, body)
	}
	var br batchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if br.Count != 3 || len(br.Results) != 3 {
		t.Fatalf("count %d, results %d, want 3/3", br.Count, len(br.Results))
	}
	if br.Results[0].Error != "" || br.Results[0].Estimate != wantFirst || br.Results[0].Explanation == nil {
		t.Errorf("item 0 = %+v, want clean explained estimate %v", br.Results[0], wantFirst)
	}
	if br.Results[1].Error == "" || !strings.Contains(br.Results[1].Error, "injected explain failure") {
		t.Errorf("item 1 error = %q, want the injected failure", br.Results[1].Error)
	}
	if br.Results[1].Explanation != nil {
		t.Error("failed item carries an explanation")
	}
	if br.Results[2].Error != "" || br.Results[2].Estimate != wantThird {
		t.Errorf("item 2 = %+v, want untouched plain estimate %v", br.Results[2], wantThird)
	}
}

// TestServePlannedBitIdenticalToInterpreted asserts a served (planned)
// estimate carries exactly the interpreter's float, and that it was
// answered from the plan cache.
func TestServePlannedBitIdenticalToInterpreted(t *testing.T) {
	sk := newTestSketch(t)
	want := sk.EstimateQueryResult(twig.MustParse(testQuery))
	_, ts := newTestServer(t, sk, nil)
	resp, body := postJSON(t, ts.URL+"/estimate", fmt.Sprintf(`{"query":%q}`, testQuery))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	var er estimateResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if math.Float64bits(er.Estimate) != math.Float64bits(want.Estimate) || er.Truncated != want.Truncated {
		t.Errorf("served %v (truncated %v) != interpreted %v (truncated %v)", er.Estimate, er.Truncated, want.Estimate, want.Truncated)
	}
	if st := sk.PlanCacheStats(); st.Misses == 0 {
		t.Error("served request did not touch the plan cache")
	}
}

// TestEstimatePointPathUsesPlanText checks that /estimate resolves its
// query through the plan cache's text path: a whitespace variant of a
// served query is answered from the cached plan (no new compilation) with
// the canonical query text and the plan's exact float, a malformed query
// still answers 400 after admission, and an explained request carries the
// plan's estimate bit for bit.
func TestEstimatePointPathUsesPlanText(t *testing.T) {
	sk := newTestSketch(t)
	q := twig.MustParse(testQuery)
	want, err := sk.EstimatePlanContext(context.Background(), sk.PlanQuery(q))
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, sk, nil)
	var admitted atomic.Int32
	s.testHookEstimate = func() { admitted.Add(1) }
	misses := sk.PlanCacheStats().Misses

	estimate := func(url, query string) (int, estimateResponse, []byte) {
		t.Helper()
		resp, body := postJSON(t, url, fmt.Sprintf(`{"query":%q}`, query))
		var er estimateResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(body, &er); err != nil {
				t.Fatalf("unmarshal: %v (%s)", err, body)
			}
		}
		return resp.StatusCode, er, body
	}

	variant := "  t0   in movie,\n\tt1 in\tt0/actor "
	code, er, body := estimate(ts.URL+"/estimate", variant)
	if code != http.StatusOK {
		t.Fatalf("status %d, body %s", code, body)
	}
	if er.Query != q.String() {
		t.Errorf("response query %q, want the canonical %q", er.Query, q.String())
	}
	if math.Float64bits(er.Estimate) != math.Float64bits(want.Estimate) || er.Truncated != want.Truncated {
		t.Errorf("served %v (truncated %v) != plan %v (truncated %v)", er.Estimate, er.Truncated, want.Estimate, want.Truncated)
	}
	if got := sk.PlanCacheStats().Misses; got != misses {
		t.Errorf("plan cache misses %d -> %d: the whitespace variant compiled a new plan", misses, got)
	}

	code, er, body = estimate(ts.URL+"/estimate?explain=true", variant)
	if code != http.StatusOK {
		t.Fatalf("explain: status %d, body %s", code, body)
	}
	if er.Explanation == nil {
		t.Fatal("explanation missing from ?explain=true response")
	}
	if math.Float64bits(er.Explanation.Estimate) != math.Float64bits(want.Estimate) ||
		math.Float64bits(er.Estimate) != math.Float64bits(want.Estimate) {
		t.Errorf("explained %v (response %v) != plan %v", er.Explanation.Estimate, er.Estimate, want.Estimate)
	}

	before := admitted.Load()
	code, _, body = estimate(ts.URL+"/estimate", "t0 in in in")
	if code != http.StatusBadRequest {
		t.Fatalf("malformed: status %d, want 400 (body %s)", code, body)
	}
	var e httpfront.ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error body is not JSON: %v (%s)", err, body)
	}
	if !strings.HasPrefix(e.Error, "malformed twig query: ") {
		t.Errorf("error %q, want the malformed twig query prefix", e.Error)
	}
	if n := admitted.Load() - before; n != 1 {
		t.Errorf("malformed query admitted %d times, want 1: it is parsed after admission", n)
	}
}
