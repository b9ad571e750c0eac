// Command servebench measures the served estimate path end to end and
// layer by layer: it builds a synopsis with XBUILD, encodes and decodes
// it through the catalog, serves it from real serve.Server (and
// router.Router) instances on loopback listeners, drives them with
// closed-loop clients and checks every answer bit for bit.
//
//	bash servebench/run.sh --workload point-hot --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Human-readable tables
// go to standard error. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"xsketch/internal/plan"
	"xsketch/internal/xmltree"
	core "xsketch/internal/xsketch"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// A run sets up setups times (setup_s is their median) and warms the
// servers up for warmup before each window; the smoke tests shorten both.
const (
	setups = 3
	warmup = time.Second
)

// options are the settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	setups   int
	warmup   time.Duration
	spanDir  string
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// coverage is the traced run's independent check, no-op round trip
	// plus handler over the served round trip (medians), and unsampled
	// the requests of the cycle it never sampled; tests check both, the
	// result line omits them.
	coverage  float64
	unsampled int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload generator seed")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the timed window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs an untraced and a traced window and reports per-layer metrics")
	fs.StringVar(&o.spanDir, "spans", filepath.Join(".bench_build", "spans"), "directory for the traced run's span file")
	rounds := fs.Int("repeat", 0, "run every workload of BENCHMARK.json this many times, interleaved, and print each metric's spread against its bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *rounds > 0 {
		seconds := 0
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "seconds" {
				seconds = o.seconds
			}
		})
		return repeat(*rounds, o.seed, seconds, stderr)
	}
	if _, ok := specByName(o.workload); !ok {
		fmt.Fprintf(stderr, "servebench: unknown workload %q (want one of %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "servebench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	o.trace = trace == 1
	o.setups, o.warmup = setups, warmup
	res, err := bench(o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return names
}

// counters snapshots the layers' own counters over a timed window: plan
// cache deltas across every synopsis generation served, hot swaps, and
// the router's retry and per-shard request counters. The swap writer
// reports each generation it retires.
type counters struct {
	mu        sync.Mutex
	sys       *system
	tally     *planTally
	swapsFrom uint64
	swaps     uint64
	routerRaw string
	router    string
	plans     plan.Stats
}

func (c *counters) totalSwaps() uint64 {
	var n uint64
	for _, r := range c.sys.replicas {
		for _, name := range c.sys.names {
			n += r.srv.Swaps(name)
		}
	}
	return n
}

func (c *counters) routerMetrics() string {
	if c.sys.rt == nil {
		return ""
	}
	rec := httptest.NewRecorder()
	c.sys.rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return rec.Body.String()
}

func (c *counters) start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tally = newPlanTally()
	for _, r := range c.sys.replicas {
		for _, sk := range r.sketches {
			c.tally.track(sk, sk.PlanCacheStats())
		}
	}
	c.swapsFrom = c.totalSwaps()
	c.routerRaw = c.routerMetrics()
}

func (c *counters) end() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.plans = c.tally.total(func(k any) plan.Stats { return k.(*core.Sketch).PlanCacheStats() })
	c.swaps = c.totalSwaps() - c.swapsFrom
	c.router = c.routerMetrics()
	c.tally = nil
}

// swapped moves a retired generation's counters into the window's tally.
func (c *counters) swapped(r *replica, name string, next *core.Sketch) {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := r.sketches[name]
	r.sketches[name] = next
	if c.tally != nil {
		c.tally.retire(old, old.PlanCacheStats())
		c.tally.track(next, next.PlanCacheStats())
	}
}

// swapper is the routed-swap writer: on every period it decodes the
// catalog bytes afresh and hot-swaps one replica's owned synopsis,
// alternating replicas, as a catalog reload would.
type swapper struct {
	sys   *system
	every time.Duration
	cnt   *counters
	stop  chan struct{}
	done  chan struct{}
	once  sync.Once

	mu      sync.Mutex
	tr      *tracer
	decodes []time.Duration
	swaps   []time.Duration
	err     error
}

func startSwapper(sys *system, every time.Duration, cnt *counters) *swapper {
	w := &swapper{sys: sys, every: every, cnt: cnt, stop: make(chan struct{}), done: make(chan struct{})}
	go w.loop()
	return w
}

func (w *swapper) loop() {
	defer close(w.done)
	tick := time.NewTicker(w.every)
	defer tick.Stop()
	for i := 0; ; i++ {
		select {
		case <-w.stop:
			return
		case <-tick.C:
		}
		if err := w.swapOnce(i); err != nil {
			w.mu.Lock()
			w.err = err
			w.mu.Unlock()
			return
		}
	}
}

// swapOnce replaces replica i mod n's owned synopsis with a fresh decode.
func (w *swapper) swapOnce(i int) error {
	idx := i % len(w.sys.replicas)
	r, name := w.sys.replicas[idx], w.sys.names[idx] // replica idx owns names[idx]
	t0 := time.Now()
	sk, _, err := decodeSketch(w.sys.catBytes)
	if err != nil {
		return err
	}
	t1 := time.Now()
	if err := r.srv.SwapSketch(name, "catalog", sk); err != nil {
		return err
	}
	t2 := time.Now()
	w.cnt.swapped(r, name, sk)
	w.mu.Lock()
	w.decodes = append(w.decodes, t1.Sub(t0))
	w.swaps = append(w.swaps, t2.Sub(t1))
	tr := w.tr
	w.mu.Unlock()
	if tr != nil {
		return tr.swapped(name, w.sys.catBytes, [2]time.Time{t0, t1}, [2]time.Time{t1, t2})
	}
	return nil
}

func (w *swapper) setTracer(tr *tracer) {
	w.mu.Lock()
	w.tr = tr
	w.mu.Unlock()
}

// close stops the writer and waits for it; later calls only return the
// writer's error again.
func (w *swapper) close() error {
	w.once.Do(func() { close(w.stop) })
	<-w.done
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// bench runs one workload: set-ups, query generation, the untimed
// warm-up and the timed window(s), then the metric summary.
func bench(o options, log io.Writer) (*result, error) {
	sp, _ := specByName(o.workload)

	var times []setupTimes
	var sys *system
	var doc *xmltree.Document
	for i := 0; i < o.setups; i++ {
		if sys != nil {
			sys.close()
			sys, doc = nil, nil
		}
		s, st, d, err := setUp(sp)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		sys, doc = s, d
		times = append(times, st)
	}
	// The document is only needed for query generation and truth; it is
	// unreachable once bench returns to measure, so it never counts as
	// live heap.
	oracle, _, err := decodeSketch(sys.catBytes)
	if err == nil {
		var qs querySet
		if qs, err = makeQueries(sp, o.seed, doc, oracle); err == nil {
			doc, oracle = nil, nil
			return measure(o, sp, sys, qs, times, log)
		}
	}
	sys.close()
	return nil, err
}

func measure(o options, sp spec, sys *system, qs querySet, times []setupTimes, log io.Writer) (*result, error) {
	defer sys.close()
	reqs, err := buildRequests(sp, qs, sys.names)
	if err != nil {
		return nil, err
	}
	chk := &checker{}
	cnt := &counters{sys: sys}
	var sw *swapper
	if sp.swapEvery > 0 {
		sw = startSwapper(sys, sp.swapEvery, cnt)
		defer sw.close()
	}
	subLen := time.Second
	w := driveLoad(sp, sys.front, reqs, chk, o.warmup, o.seconds, subLen, loadHooks{start: cnt.start, end: cnt.end})
	e2e := summarize(w)
	if !e2e.p90ok {
		return nil, fmt.Errorf("%d requests in the window: too few for a latency block", e2e.requests)
	}

	res := &result{}
	setupS := make([]float64, len(times))
	for i, t := range times {
		setupS[i] = t.total.Seconds()
	}
	untraced := map[string]metric{
		"setup_s":             {median(setupS), "s"},
		"p50_ms":              {e2e.p50, "ms"},
		"p90_ms":              {e2e.p90, "ms"},
		"estimates_per_s":     {e2e.rate, "1/s"},
		"cpu_us_per_estimate": {e2e.cpuPerEst, "us"},
		"live_heap_mib":       {e2e.heapMiB, "MiB"},
		"avg_rel_error":       {qs.avgRelError, "ratio"},
	}
	fmt.Fprintf(log, "%s seed %d: %d requests (%d latency blocks of 100), %d estimates in %ds; %d served queries, accuracy over %d\n",
		sp.name, o.seed, e2e.requests, e2e.blocks, e2e.estimates, o.seconds, len(qs.texts), qs.accuracyN)
	printMetrics(log, "end-to-end (untraced)", untraced)
	fmt.Fprintf(log, "p99 (median over 1000-request blocks, not gated): %.4f ms\n", e2e.p99)
	fmt.Fprintf(log, "estimates/s per 1s sub-window: %.0f\n", e2e.subRates)

	if !o.trace {
		res.Metrics = untraced
	} else {
		if err := traced(res, o, sp, sys, reqs, chk, cnt, sw, w, e2e, times, log); err != nil {
			return nil, err
		}
	}
	if sw != nil {
		if err := sw.close(); err != nil {
			return nil, fmt.Errorf("swap writer: %w", err)
		}
	}
	res.Attempted, res.Failed = chk.attempted.Load(), chk.failed.Load()
	res.Correct = chk.mismatched.Load() == 0
	fmt.Fprintf(log, "requests: %d attempted, %d failed, %d estimate mismatches\n", res.Attempted, res.Failed, chk.mismatched.Load())
	if chk.first != "" {
		fmt.Fprintln(log, "first failure:", chk.first)
	}
	return res, nil
}

// traced runs the traced window after the untraced one and fills res
// with the per-layer metrics: span-derived timings from the traced
// window, layer counters from the untraced one (tracing adds work they
// would count).
func traced(res *result, o options, sp spec, sys *system, reqs []request, chk *checker, cnt *counters, sw *swapper,
	w window, e2e endToEnd, times []setupTimes, log io.Writer) error {
	sh, err := newShadow(sys.catBytes, sys.names)
	if err != nil {
		return err
	}
	tr := newTracer(sp, sys, sh, chk, len(reqs))
	if sw != nil {
		sw.setTracer(tr)
	}
	tw := driveLoad(sp, sys.front, reqs, chk, o.warmup, o.seconds, time.Second, loadHooks{sample: tr.hook})
	// The writer stops with the traced window: measureAllocs below counts
	// the whole process's allocations. Its error is reported by measure.
	if sw != nil {
		sw.close()
	}
	tr.close()
	te := summarize(tw)

	tr.mu.Lock()
	defer tr.mu.Unlock()
	path := filepath.Join(o.spanDir, fmt.Sprintf("%s-seed%d.jsonl", sp.name, o.seed))
	if err := tr.writeSpans(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(log, "wrote %d spans to %s\n", len(tr.spans), path)
	res.coverage = tr.selfTable(log)
	res.unsampled = tr.unsampled(reqs)
	fmt.Fprintf(log, "sampled %d of the cycle's %d requests (stride %d)\n", len(reqs)-res.unsampled, len(reqs), tr.every)
	fmt.Fprintln(log, "tracing overhead (traced - untraced):")
	for _, m := range []struct {
		name    string
		off, on float64
	}{
		{"p50_ms", e2e.p50, te.p50}, {"p90_ms", e2e.p90, te.p90}, {"estimates_per_s", e2e.rate, te.rate},
		{"cpu_us_per_estimate", e2e.cpuPerEst, te.cpuPerEst}, {"live_heap_mib", e2e.heapMiB, te.heapMiB},
	} {
		fmt.Fprintf(log, "  %-22s %12.4f -> %12.4f  (%+.4f, %+.1f%%)\n", m.name, m.off, m.on, m.on-m.off, 100*(m.on-m.off)/m.off)
	}

	parseAllocs, handlerAllocs := measureAllocs(sp, sh, reqs)
	kib, gc := perEstimateAlloc(w.allocFrom, w.allocTo, e2e.estimates)
	decodes := []float64{}
	for _, t := range times {
		for _, d := range t.decodes {
			decodes = append(decodes, d.Seconds()*1000)
		}
	}
	var swapUS []float64
	if sw != nil {
		sw.mu.Lock()
		for _, d := range sw.decodes {
			decodes = append(decodes, d.Seconds()*1000)
		}
		for _, d := range sw.swaps {
			swapUS = append(swapUS, us(d))
		}
		sw.mu.Unlock()
	}
	var xbuild, gen []float64
	for _, t := range times {
		xbuild = append(xbuild, t.xbuild.Seconds())
		gen = append(gen, t.generate.Seconds())
	}
	last := times[len(times)-1]
	retries := seriesDelta(promSeries(cnt.routerRaw, "xrouter_retry_total"), promSeries(cnt.router, "xrouter_retry_total"))
	shards := seriesDelta(promSeries(cnt.routerRaw, "xrouter_shard_requests_total"), promSeries(cnt.router, "xrouter_shard_requests_total"))

	m := map[string]metric{
		"client.p99_ms":                  {e2e.p99, "ms"},
		"twig.parse_us":                  {tr.med("twig.parse_us"), "us"},
		"twig.parse_allocs":              {parseAllocs, "count"},
		"xsketch.plan_hit_us":            {tr.med("xsketch.plan_hit_us"), "us"},
		"xsketch.plan_compile_us":        {tr.med("xsketch.plan_compile_us"), "us"},
		"xsketch.plan_hit_ratio":         {hitRatio(cnt.plans), "ratio"},
		"xsketch.plan_evictions":         {float64(cnt.plans.Evictions), "count"},
		"xsketch.batch_estimate_ms":      {tr.med("xsketch.batch_estimate_ms"), "ms"},
		"plan.exec_us":                   {tr.med("plan.exec_us"), "us"},
		"serve.handler_us":               {tr.med("serve.handler_us"), "us"},
		"serve.handler_allocs":           {handlerAllocs, "count"},
		"serve.self_us":                  {tr.med("serve.self_us"), "us"},
		"serve.wire_us":                  {tr.med("serve.wire_us"), "us"},
		"serve.batch_handler_ms":         {tr.med("serve.batch_handler_ms"), "ms"},
		"serve.batch_self_ms":            {tr.med("serve.batch_self_ms"), "ms"},
		"serve.swap_us":                  {medianOrZero(swapUS), "us"},
		"serve.swaps":                    {float64(cnt.swaps), "count"},
		"router.hop_us":                  {tr.med("router.hop_us"), "us"},
		"router.ring_ns":                 {tr.med("router.ring_ns"), "ns"},
		"router.retries":                 {sumValues(retries), "count"},
		"router.max_shard_share":         {maxShare(shards), "ratio"},
		"catalog.decode_ms":              {medianOrZero(decodes), "ms"},
		"catalog.bytes":                  {float64(len(sys.catBytes)), "bytes"},
		"build.xbuild_s":                 {median(xbuild), "s"},
		"build.steps":                    {float64(last.steps), "count"},
		"build.estimator_hit_ratio":      {last.estimatorHitRatio, "ratio"},
		"xmlgen.generate_s":              {median(gen), "s"},
		"runtime.alloc_kib_per_estimate": {kib, "KiB"},
		"runtime.gc_per_1k_estimates":    {gc, "count"},
	}
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			v.Value = 0 // the layer is not on this workload's path
			m[k] = v
		}
	}
	printMetrics(log, "per-layer", m)
	res.Metrics = m
	return nil
}

func medianOrZero(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

func printMetrics(w io.Writer, title string, m map[string]metric) {
	fmt.Fprintf(w, "%s:\n", title)
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(w, "  %-32s %16.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}
