package serve

import (
	"bufio"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"xsketch/internal/accuracy"
)

// documentedSeries is the metrics catalog promised in SERVING.md: every
// family xserve exposes, keyed by name with its TYPE line value. The test
// fails when the endpoint and this catalog drift apart in either
// direction, which keeps the docs honest.
var documentedSeries = map[string]string{
	"xserve_requests_total":                    "counter",
	"xserve_in_flight_requests":                "gauge",
	"xserve_requests_shed_total":               "counter",
	"xserve_request_timeouts_total":            "counter",
	"xserve_estimate_latency_seconds":          "histogram",
	"xserve_estimate_latency_quantile_seconds": "gauge",
	"xserve_batch_latency_seconds":             "histogram",
	"xserve_batch_queries_total":               "counter",
	"xserve_sketch_truncated_total":            "counter",
	"xserve_traced_requests_total":             "counter",
	"xserve_estimate_stage_latency_seconds":    "histogram",
	"xserve_trace_events_total":                "counter",
	"xserve_sketch_cache_hits_total":           "counter",
	"xserve_sketch_cache_misses_total":         "counter",
	"xserve_sketch_cache_hit_ratio":            "gauge",
	"xserve_sketch_plan_cache_hits_total":      "counter",
	"xserve_sketch_plan_cache_misses_total":    "counter",
	"xserve_sketch_plan_cache_evictions_total": "counter",
	"xserve_sketch_plan_cache_size":            "gauge",
	"xserve_batch_item_errors_total":           "counter",
	"xserve_sketch_swaps_total":                "counter",
	"xserve_reload_errors_total":               "counter",
	"xserve_sketch_size_bytes":                 "gauge",
	"xserve_goroutines":                        "gauge",
	"xserve_uptime_seconds":                    "gauge",
	"xserve_build_info":                        "gauge",

	// Accuracy-auditor families; rendered only when auditing is enabled
	// (the catalog test's server enables it).
	"xserve_accuracy_sampled_total":         "counter",
	"xserve_accuracy_dropped_total":         "counter",
	"xserve_accuracy_audited_total":         "counter",
	"xserve_accuracy_truth_skipped_total":   "counter",
	"xserve_accuracy_drift_total":           "counter",
	"xserve_accuracy_qerror":                "histogram",
	"xserve_accuracy_truth_latency_seconds": "histogram",
	"xserve_accuracy_window_qerror":         "gauge",
}

// parseExposition validates the Prometheus text format line by line and
// returns TYPE declarations plus every rendered sample keyed by full
// series (name + label string).
func parseExposition(t *testing.T, text string) (types map[string]string, samples map[string]float64) {
	t.Helper()
	types = make(map[string]string)
	samples = make(map[string]float64)
	helped := make(map[string]bool)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || parts[1] == "" {
				t.Fatalf("HELP line without text: %q", line)
			}
			helped[parts[0]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			if !helped[parts[0]] {
				t.Errorf("TYPE before HELP for %s", parts[0])
			}
			types[parts[0]] = parts[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unknown comment line: %q", line)
		}
		idx := strings.LastIndexByte(line, ' ')
		if idx < 0 {
			t.Fatalf("sample line without value: %q", line)
		}
		series, valStr := line[:idx], line[idx+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("sample %q: bad value %q: %v", series, valStr, err)
		}
		if _, dup := samples[series]; dup {
			t.Errorf("duplicate series %q", series)
		}
		samples[series] = val
	}
	return types, samples
}

func TestMetricsEndpointMatchesDocumentedCatalog(t *testing.T) {
	// Auditing enabled so the xserve_accuracy_* families render too.
	_, ts := newTestServer(t, newTestSketch(t), func(c *Config) {
		c.Audit = &accuracy.Config{SampleRate: 1, TruthInterval: -1}
	})

	// Generate traffic across the instrumented paths first.
	postJSON(t, ts.URL+"/estimate", fmt.Sprintf(`{"query":%q}`, testQuery))
	postJSON(t, ts.URL+"/estimate?explain=true", fmt.Sprintf(`{"query":%q}`, testQuery))
	postJSON(t, ts.URL+"/estimate/batch", fmt.Sprintf(`{"queries":[%q,%q]}`, testQuery, testQuery))
	getBody(t, ts.URL+"/sketches")

	resp, body := getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q, want text/plain exposition", ct)
	}

	types, samples := parseExposition(t, string(body))
	for name, typ := range documentedSeries {
		got, ok := types[name]
		if !ok {
			t.Errorf("documented family %s missing from /metrics", name)
			continue
		}
		if got != typ {
			t.Errorf("family %s has type %s, documented as %s", name, got, typ)
		}
	}
	for name := range types {
		if _, ok := documentedSeries[name]; !ok {
			t.Errorf("undocumented family %s exposed at /metrics", name)
		}
	}

	// Spot-check sample values driven by the traffic above.
	if v := samples[`xserve_requests_total{path="/estimate",code="200"}`]; v != 2 {
		t.Errorf("estimate request count %v, want 2", v)
	}
	if v := samples["xserve_batch_queries_total"]; v != 2 {
		t.Errorf("batch query count %v, want 2", v)
	}
	if v := samples["xserve_estimate_latency_seconds_count"]; v != 2 {
		t.Errorf("latency histogram count %v, want 2", v)
	}
	if v := samples[`xserve_sketch_cache_misses_total{sketch="imdb"}`]; v <= 0 {
		t.Errorf("cache misses %v, want > 0 after estimates", v)
	}
	if v := samples[`xserve_sketch_plan_cache_misses_total{sketch="imdb"}`]; v <= 0 {
		t.Errorf("plan-cache misses %v, want > 0 after planned estimates", v)
	}
	if v := samples[`xserve_sketch_plan_cache_hits_total{sketch="imdb"}`]; v <= 0 {
		t.Errorf("plan-cache hits %v, want > 0 after repeated queries", v)
	}
	if v := samples[`xserve_sketch_plan_cache_size{sketch="imdb"}`]; v <= 0 {
		t.Errorf("plan-cache size %v, want > 0", v)
	}
	if _, ok := samples[`xserve_estimate_latency_quantile_seconds{quantile="0.99"}`]; !ok {
		t.Error("p99 quantile series missing")
	}
	if v := samples["xserve_traced_requests_total"]; v != 1 {
		t.Errorf("traced request count %v, want 1", v)
	}
	if v := samples[`xserve_trace_events_total{kind="expand"}`]; v <= 0 {
		t.Errorf("expand trace events %v, want > 0 after explain request", v)
	}
	for _, stage := range []string{"expand", "embed", "treeparse", "histogram_lookup"} {
		series := fmt.Sprintf(`xserve_estimate_stage_latency_seconds_count{stage=%q}`, stage)
		if v, ok := samples[series]; !ok || v != 1 {
			t.Errorf("%s = %v (present %v), want 1 after one traced request", series, v, ok)
		}
	}

	// Histogram buckets must be cumulative and end at +Inf == _count.
	var prev float64
	var sawInf bool
	for _, b := range histogramBuckets(samples, "xserve_estimate_latency_seconds") {
		if b.count < prev {
			t.Errorf("bucket le=%q count %v below previous %v (not cumulative)", b.le, b.count, prev)
		}
		prev = b.count
		if b.le == "+Inf" {
			sawInf = true
			if b.count != samples["xserve_estimate_latency_seconds_count"] {
				t.Errorf("+Inf bucket %v != _count %v", b.count, samples["xserve_estimate_latency_seconds_count"])
			}
		}
	}
	if !sawInf {
		t.Error("histogram missing +Inf bucket")
	}
}

type bucket struct {
	le    string
	count float64
}

// histogramBuckets extracts a family's buckets in exposition order... which
// parseExposition flattened into a map, so re-derive order by bound value.
func histogramBuckets(samples map[string]float64, family string) []bucket {
	var out []bucket
	prefix := family + `_bucket{le="`
	for series, v := range samples {
		if strings.HasPrefix(series, prefix) {
			le := strings.TrimSuffix(strings.TrimPrefix(series, prefix), `"}`)
			out = append(out, bucket{le: le, count: v})
		}
	}
	sortBuckets(out)
	return out
}

func sortBuckets(bs []bucket) {
	parse := func(le string) float64 {
		if le == "+Inf" {
			return math.Inf(1)
		}
		v, _ := strconv.ParseFloat(le, 64)
		return v
	}
	for i := 1; i < len(bs); i++ {
		for j := i; j > 0 && parse(bs[j].le) < parse(bs[j-1].le); j-- {
			bs[j], bs[j-1] = bs[j-1], bs[j]
		}
	}
}
