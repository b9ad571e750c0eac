package serve

import (
	"runtime"
	"time"

	"xsketch/internal/obs"
	"xsketch/internal/trace"
)

// metrics bundles the server's instrument handles. Every series rendered
// at /metrics is declared here and documented in SERVING.md's catalog; the
// metrics-endpoint test cross-checks the documented names.
type metrics struct {
	requests   *obs.CounterVec // xserve_requests_total{path,code}
	inFlight   *obs.Gauge      // xserve_in_flight_requests
	shed       *obs.Counter    // xserve_requests_shed_total
	timeouts   *obs.Counter    // xserve_request_timeouts_total
	estLatency *obs.Histogram  // xserve_estimate_latency_seconds
	batchLat   *obs.Histogram  // xserve_batch_latency_seconds
	batchSize  *obs.Counter    // xserve_batch_queries_total
	truncated  *obs.CounterVec // xserve_sketch_truncated_total{sketch}

	batchItemErrs *obs.Counter // xserve_batch_item_errors_total

	reloadErrs *obs.Counter // xserve_reload_errors_total

	traced      *obs.Counter      // xserve_traced_requests_total
	stageLat    *obs.HistogramVec // xserve_estimate_stage_latency_seconds{stage}
	traceEvents *obs.CounterVec   // xserve_trace_events_total{kind}
}

// newMetrics registers every family on the server's registry. Per-sketch
// cache counters are func-backed: each scrape samples the sketch's live,
// race-safe EstimatorStats, so the server never owns (or lags) the
// counters it reports.
func newMetrics(reg *obs.Registry, s *Server) *metrics {
	m := &metrics{
		requests: reg.NewCounterVec("xserve_requests_total",
			"HTTP requests by path and status code.", "path", "code"),
		inFlight: reg.NewGauge("xserve_in_flight_requests",
			"Estimate requests currently admitted (holding a concurrency slot)."),
		shed: reg.NewCounter("xserve_requests_shed_total",
			"Estimate requests rejected with 429 at the concurrency cap."),
		timeouts: reg.NewCounter("xserve_request_timeouts_total",
			"Estimate requests cancelled by the per-request timeout (504)."),
		estLatency: reg.NewHistogram("xserve_estimate_latency_seconds",
			"Latency of successful single-query estimations.", nil),
		batchLat: reg.NewHistogram("xserve_batch_latency_seconds",
			"Latency of successful batch estimations.", nil),
		batchSize: reg.NewCounter("xserve_batch_queries_total",
			"Queries received across batch requests."),
		truncated: reg.NewCounterVec("xserve_sketch_truncated_total",
			"Estimates whose embedding enumeration hit MaxEmbeddings.", "sketch"),
		batchItemErrs: reg.NewCounter("xserve_batch_item_errors_total",
			"Batch items answered with a per-item error (the batch itself succeeded)."),
		reloadErrs: reg.NewCounter("xserve_reload_errors_total",
			"Failed /admin/reload attempts (the served sketch stayed untouched)."),
		traced: reg.NewCounter("xserve_traced_requests_total",
			"Estimates served with explain tracing enabled."),
		stageLat: reg.NewHistogramVec("xserve_estimate_stage_latency_seconds",
			"Per-stage latency of traced estimations (stages nest: embed includes expand, treeparse includes histogram_lookup).",
			nil, "stage"),
		traceEvents: reg.NewCounterVec("xserve_trace_events_total",
			"Trace events recorded by traced estimations, by event kind.", "kind"),
	}

	quant := reg.NewFuncFamily("xserve_estimate_latency_quantile_seconds",
		"Estimate-latency quantiles interpolated from the histogram buckets.", "gauge")
	for _, q := range []struct {
		label string
		v     float64
	}{{"0.5", 0.5}, {"0.95", 0.95}, {"0.99", 0.99}} {
		q := q
		quant.Attach(func() float64 { return m.estLatency.Quantile(q.v) }, "quantile", q.label)
	}

	hits := reg.NewFuncFamily("xserve_sketch_cache_hits_total",
		"Estimator-cache hits per served sketch (lifetime of the sketch).", "counter")
	misses := reg.NewFuncFamily("xserve_sketch_cache_misses_total",
		"Estimator-cache misses per served sketch.", "counter")
	evictions := reg.NewFuncFamily("xserve_sketch_cache_evictions_total",
		"Estimator-cache entries dropped by invalidation per served sketch.", "counter")
	ratio := reg.NewFuncFamily("xserve_sketch_cache_hit_ratio",
		"Estimator-cache hits / lookups per served sketch.", "gauge")
	size := reg.NewFuncFamily("xserve_sketch_size_bytes",
		"Stored synopsis size per served sketch.", "gauge")
	planHits := reg.NewFuncFamily("xserve_sketch_plan_cache_hits_total",
		"Compiled-plan cache hits per served sketch.", "counter")
	planMisses := reg.NewFuncFamily("xserve_sketch_plan_cache_misses_total",
		"Compiled-plan cache misses (compilations) per served sketch.", "counter")
	planEvictions := reg.NewFuncFamily("xserve_sketch_plan_cache_evictions_total",
		"Compiled plans dropped for capacity or staleness per served sketch.", "counter")
	planSize := reg.NewFuncFamily("xserve_sketch_plan_cache_size",
		"Compiled plans currently cached per served sketch.", "gauge")
	swaps := reg.NewFuncFamily("xserve_sketch_swaps_total",
		"Hot swaps applied per served sketch (/admin/reload, SIGHUP, SwapSketch).", "counter")
	// Every closure loads the entry's current state, so a scrape right
	// after a hot swap reports the new synopsis — and the swap counter is
	// pre-created per name, so its zero is visible before the first swap.
	for _, name := range s.names {
		e := s.entries[name]
		hits.Attach(func() float64 { return float64(e.state.Load().sk.EstimatorStats().Hits) }, "sketch", name)
		misses.Attach(func() float64 { return float64(e.state.Load().sk.EstimatorStats().Misses) }, "sketch", name)
		evictions.Attach(func() float64 { return float64(e.state.Load().sk.EstimatorStats().Evictions) }, "sketch", name)
		ratio.Attach(func() float64 { return e.state.Load().sk.EstimatorStats().HitRate() }, "sketch", name)
		size.Attach(func() float64 { return float64(e.state.Load().sizeBytes) }, "sketch", name)
		planHits.Attach(func() float64 { return float64(e.state.Load().sk.PlanCacheStats().Hits) }, "sketch", name)
		planMisses.Attach(func() float64 { return float64(e.state.Load().sk.PlanCacheStats().Misses) }, "sketch", name)
		planEvictions.Attach(func() float64 { return float64(e.state.Load().sk.PlanCacheStats().Evictions) }, "sketch", name)
		planSize.Attach(func() float64 { return float64(e.state.Load().sk.PlanCacheStats().Size) }, "sketch", name)
		swaps.Attach(func() float64 { return float64(e.swaps.Load()) }, "sketch", name)
	}

	// Pre-create one stage series per pipeline stage so the scrape catalog
	// is complete from the first scrape, not only after the first traced
	// request.
	for st := trace.Stage(0); st < trace.NumStages; st++ {
		m.stageLat.With(st.String())
	}

	obs.RegisterBuildInfo(reg)
	reg.NewFuncFamily("xserve_goroutines",
		"Goroutines in the serving process.", "gauge").
		Attach(func() float64 { return float64(runtime.NumGoroutine()) })
	reg.NewFuncFamily("xserve_uptime_seconds",
		"Seconds since the server started.", "gauge").
		Attach(func() float64 { return time.Since(s.start).Seconds() })

	return m
}

// observeTrace feeds one finished recorder into the trace metrics:
// per-stage latencies and event-kind counters. A nil recorder (tracing
// disabled) is a no-op.
func (m *metrics) observeTrace(rec *trace.Recorder) {
	if rec == nil {
		return
	}
	m.traced.Inc()
	secs := rec.StageSeconds()
	for st := trace.Stage(0); st < trace.NumStages; st++ {
		m.stageLat.With(st.String()).Observe(secs[st])
	}
	for _, ec := range rec.EventCounts() {
		m.traceEvents.With(ec.Kind).Add(uint64(ec.Count))
	}
}
