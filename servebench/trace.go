package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"xsketch/internal/router"
	"xsketch/internal/serve"
	"xsketch/internal/twig"
	core "xsketch/internal/xsketch"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share Req; Parent is the causing span's ID (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// shadow is the traced run's in-process copy of one replica: a server
// over synopses decoded from the same catalog bytes, plus a second set of
// synopses for direct layer calls. Both receive the same query sequence
// in the same order, so their plan caches hit and miss alike and a direct
// call re-enacts what the handler's inner call did.
type shadow struct {
	srv     *serve.Server
	layer   map[string]*core.Sketch // direct-call mirror of what srv serves
	compile *core.Sketch            // plan cache disabled: PlanQuery always compiles
}

func newShadow(catBytes []byte, names []string) (*shadow, error) {
	sh := &shadow{layer: make(map[string]*core.Sketch)}
	var served []serve.Sketch
	for _, name := range names {
		a, _, err := decodeSketch(catBytes)
		if err != nil {
			return nil, err
		}
		b, _, err := decodeSketch(catBytes)
		if err != nil {
			return nil, err
		}
		sh.layer[name] = b
		served = append(served, serve.Sketch{Name: name, Source: "shadow", Sketch: a})
	}
	c, _, err := decodeSketch(catBytes)
	if err != nil {
		return nil, err
	}
	c.Cfg.PlanCacheSize = -1
	sh.compile = c
	if sh.srv, err = serve.New(serve.Config{}, served); err != nil {
		return nil, err
	}
	return sh, nil
}

// swap mirrors a replica's hot swap onto the shadow.
func (sh *shadow) swap(name string, catBytes []byte) error {
	a, _, err := decodeSketch(catBytes)
	if err != nil {
		return err
	}
	b, _, err := decodeSketch(catBytes)
	if err != nil {
		return err
	}
	if err := sh.srv.SwapSketch(name, "shadow", a); err != nil {
		return err
	}
	sh.layer[name] = b
	return nil
}

// tracer records spans and derived per-layer samples for the traced run.
// Re-issues run one at a time under mu, so the shadow's caches see one
// query sequence and no two re-issues contend with each other.
type tracer struct {
	mu      sync.Mutex
	base    time.Time
	spans   []span
	samples map[string][]float64
	nextReq int64
	sh      *shadow
	sp      spec
	chk     *checker
	ring    *router.Ring
	direct  map[string]string // name -> owner replica base URL (routed)
	client  *http.Client
	// noop is a loopback listener whose handler only drains the request
	// and writes a reply of the asked size: its round trip measures the
	// wire apart from the handler, to check the self-time subtraction.
	noop *httptest.Server
	// every is the sampling stride, coprime with the request cycle's
	// length so that each client's samples visit every request.
	every   int
	sampled map[*request]bool
}

func newTracer(sp spec, sys *system, sh *shadow, chk *checker, cycle int) *tracer {
	tr := &tracer{base: time.Now(), samples: make(map[string][]float64), sh: sh, sp: sp, chk: chk,
		every: coprimeStride(sp.sampleEvery, cycle), sampled: make(map[*request]bool)}
	tr.client, _ = newClient(1)
	tr.noop = httptest.NewServer(http.HandlerFunc(noopReply))
	if sys.rt != nil {
		urls := make([]string, len(sys.replicas))
		for i, r := range sys.replicas {
			urls[i] = r.ts.URL
		}
		tr.ring = router.NewRing(urls, 0)
		tr.direct = make(map[string]string)
		for name, i := range sys.owner {
			tr.direct[name] = sys.replicas[i].ts.URL
		}
	}
	return tr
}

// close stops the tracer's listener and connections.
func (tr *tracer) close() {
	tr.client.CloseIdleConnections()
	tr.noop.Close()
}

// coprimeStride returns the smallest stride of at least every that
// shares no factor with cycle. Sampling a cyclic walk at that stride
// visits every position of the cycle.
func coprimeStride(every, cycle int) int {
	gcd := func(a, b int) int {
		for b != 0 {
			a, b = b, a%b
		}
		return a
	}
	s := max(every, 1)
	for cycle > 1 && gcd(s, cycle) != 1 {
		s++
	}
	return s
}

// noopReply drains the request and answers with ?n= bytes of JSON
// whitespace.
func noopReply(w http.ResponseWriter, r *http.Request) {
	_, _ = io.Copy(io.Discard, r.Body)
	n, _ := strconv.Atoi(r.URL.Query().Get("n"))
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(bytes.Repeat([]byte{' '}, n))
}

// noopRoundTrip times one request with r's body to the no-op listener,
// answered with reply bytes.
func (tr *tracer) noopRoundTrip(r *request, reply int) (time.Time, time.Time, error) {
	t0 := time.Now()
	status, _, err := roundTrip(tr.client, tr.noop.URL+"/noop?n="+strconv.Itoa(reply), r.body)
	t1 := time.Now()
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("no-op listener answered %d", status)
	}
	return t0, t1, err
}

// unsampled counts the requests of the cycle the traced window never
// sampled.
func (tr *tracer) unsampled(reqs []request) int {
	n := 0
	for i := range reqs {
		if !tr.sampled[&reqs[i]] {
			n++
		}
	}
	return n
}

func (tr *tracer) add(req int64, parent int, name string, t0, t1 time.Time) int {
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: t0.Sub(tr.base).Nanoseconds(), End: t1.Sub(tr.base).Nanoseconds()})
	return id
}

func (tr *tracer) sample(name string, v float64) { tr.samples[name] = append(tr.samples[name], v) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// hook samples the traced window: every tr.every-th request of each
// client is re-issued layer by layer.
func (tr *tracer) hook(seq int64, r *request, t0, t1 time.Time) {
	if seq%int64(tr.every) != 0 {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.sampled[r] = true
	tr.nextReq++
	req := tr.nextReq
	root := tr.add(req, 0, "client.request", t0, t1)
	rtt := us(t1.Sub(t0))
	tr.sample("client.request_us", rtt)
	var err error
	if tr.sp.batch > 0 {
		err = tr.reissueBatch(req, root, r, rtt)
	} else {
		err = tr.reissueSingle(req, root, r, rtt)
	}
	if err != nil {
		tr.chk.record(err, false)
	}
}

// handler runs one request through the shadow server in process and
// returns its duration and the size of its reply.
func (tr *tracer) handler(r *request, path string) (time.Duration, int) {
	hreq := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(r.body))
	rec := httptest.NewRecorder()
	t0 := time.Now()
	tr.sh.srv.Handler().ServeHTTP(rec, hreq)
	d := time.Since(t0)
	mismatch, err := verify(r, rec.Code, rec.Body.Bytes())
	tr.chk.record(err, mismatch)
	return d, rec.Body.Len()
}

// wireCheck times the no-op round trip for r and records it beside the
// served round trip it should account for together with the handler.
func (tr *tracer) wireCheck(req int64, root int, r *request, reply int, served, handler float64) error {
	// The first call wakes an idle connection and its server goroutine,
	// which the load's busy connections never wait for (about 12 us on
	// point-hot); the second is timed.
	var t0, t1 time.Time
	var err error
	for i := 0; i < 2 && err == nil; i++ {
		t0, t1, err = tr.noopRoundTrip(r, reply)
	}
	if err != nil {
		return fmt.Errorf("no-op round trip: %w", err)
	}
	tr.add(req, root, "wire.noop_request", t0, t1)
	tr.sample("wire.noop_us", us(t1.Sub(t0)))
	tr.sample("check.served_us", served)
	tr.sample("check.accounted_us", us(t1.Sub(t0))+handler)
	return nil
}

func (tr *tracer) reissueSingle(req int64, root int, r *request, rtt float64) error {
	ctx := context.Background()
	wireBase := rtt
	if tr.ring != nil {
		// The same request sent straight to the owner replica: the
		// difference is the router hop.
		t0 := time.Now()
		status, body, err := roundTrip(tr.client, tr.direct[r.name]+"/estimate", r.body)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("direct request: %w", err)
		}
		mismatch, verr := verify(r, status, body)
		tr.chk.record(verr, mismatch)
		tr.add(req, root, "serve.direct_request", t0, t1)
		direct := us(t1.Sub(t0))
		tr.sample("router.hop_us", rtt-direct)
		wireBase = direct

		const loops = 256
		t0 = time.Now()
		for i := 0; i < loops; i++ {
			tr.ring.Owner(r.name)
		}
		t1 = time.Now()
		tr.add(req, root, "router.ring", t0, t1)
		tr.sample("router.ring_ns", float64(t1.Sub(t0).Nanoseconds())/loops)
	}

	t0 := time.Now()
	hd, reply := tr.handler(r, "/estimate")
	h := tr.add(req, root, "serve.handler", t0, t0.Add(hd))

	t0 = time.Now()
	q, err := twig.Parse(r.texts[0])
	t1 := time.Now()
	if err != nil {
		return fmt.Errorf("parse %q: %w", r.texts[0], err)
	}
	tr.add(req, h, "twig.parse", t0, t1)
	parse := us(t1.Sub(t0))

	sk := tr.sh.layer[r.name]
	t0 = time.Now()
	p := sk.PlanQuery(q) // re-enacts the handler's lookup: same cache state
	t1 = time.Now()
	tr.add(req, h, "xsketch.plan", t0, t1)
	planned := us(t1.Sub(t0))

	t0 = time.Now()
	p = sk.PlanQuery(q) // now cached for certain
	t1 = time.Now()
	tr.add(req, h, "xsketch.plan_hit", t0, t1)
	tr.sample("xsketch.plan_hit_us", us(t1.Sub(t0)))

	t0 = time.Now()
	res, err := sk.EstimatePlanContext(ctx, p)
	t1 = time.Now()
	if err != nil {
		return fmt.Errorf("execute plan: %w", err)
	}
	tr.add(req, h, "plan.exec", t0, t1)
	exec := us(t1.Sub(t0))
	tr.chk.compare(r, []core.EstimateResult{res})

	t0 = time.Now()
	tr.sh.compile.PlanQuery(q)
	t1 = time.Now()
	tr.add(req, root, "xsketch.plan_compile", t0, t1)
	tr.sample("xsketch.plan_compile_us", us(t1.Sub(t0)))

	handler := us(hd)
	tr.sample("twig.parse_us", parse)
	tr.sample("xsketch.plan_us", planned)
	tr.sample("plan.exec_us", exec)
	tr.sample("serve.handler_us", handler)
	tr.sample("serve.self_us", selfTime(handler, parse, planned, exec))
	tr.sample("serve.wire_us", selfTime(wireBase, handler))
	return tr.wireCheck(req, root, r, reply, wireBase, handler)
}

func (tr *tracer) reissueBatch(req int64, root int, r *request, rtt float64) error {
	ctx := context.Background()
	t0 := time.Now()
	hd, reply := tr.handler(r, "/estimate/batch")
	h := tr.add(req, root, "serve.batch_handler", t0, t0.Add(hd))

	qs := make([]*twig.Query, len(r.texts))
	parseSum := 0.0
	for i, text := range r.texts {
		t0 = time.Now()
		q, err := twig.Parse(text)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("parse %q: %w", text, err)
		}
		tr.add(req, h, "twig.parse", t0, t1)
		parseSum += us(t1.Sub(t0))
		tr.sample("twig.parse_us", us(t1.Sub(t0)))
		qs[i] = q
	}

	sk := tr.sh.layer[r.name]
	t0 = time.Now()
	res, err := sk.EstimateBatchPlannedContext(ctx, qs, 0)
	t1 := time.Now()
	if err != nil {
		return fmt.Errorf("batch estimate: %w", err)
	}
	tr.add(req, h, "xsketch.batch_estimate", t0, t1)
	batchEst := us(t1.Sub(t0))
	tr.chk.compare(r, res)

	t0 = time.Now()
	p := sk.PlanQuery(qs[0])
	t1 = time.Now()
	tr.add(req, h, "xsketch.plan_hit", t0, t1)
	tr.sample("xsketch.plan_hit_us", us(t1.Sub(t0)))
	t0 = time.Now()
	if _, err := sk.EstimatePlanContext(ctx, p); err != nil {
		return fmt.Errorf("execute plan: %w", err)
	}
	t1 = time.Now()
	tr.add(req, h, "plan.exec", t0, t1)
	tr.sample("plan.exec_us", us(t1.Sub(t0)))

	t0 = time.Now()
	tr.sh.compile.PlanQuery(qs[0])
	t1 = time.Now()
	tr.add(req, root, "xsketch.plan_compile", t0, t1)
	tr.sample("xsketch.plan_compile_us", us(t1.Sub(t0)))

	handler := us(hd)
	tr.sample("serve.batch_handler_ms", handler/1000)
	tr.sample("xsketch.batch_estimate_ms", batchEst/1000)
	tr.sample("twig.batch_parse_us", parseSum)
	tr.sample("serve.batch_self_ms", selfTime(handler, parseSum, batchEst)/1000)
	tr.sample("serve.wire_us", selfTime(rtt, handler))
	return tr.wireCheck(req, root, r, reply, rtt, handler)
}

// measureAllocs counts allocations per twig.Parse, averaged over up to
// 64 served texts, and per single-estimate handler call on the shadow
// server beyond what the harness's own recorder and request allocate. It
// runs after the load stopped: AllocsPerRun pins GOMAXPROCS to 1.
func measureAllocs(sp spec, sh *shadow, reqs []request) (parse, handler float64) {
	seen := make(map[string]bool)
	for _, r := range reqs {
		for _, text := range r.texts {
			if seen[text] || len(seen) == 64 {
				continue
			}
			seen[text] = true
			parse += testing.AllocsPerRun(50, func() { _, _ = twig.Parse(text) })
		}
	}
	parse /= float64(len(seen))
	if sp.batch > 0 {
		return parse, 0
	}
	body := reqs[0].body
	call := func(h http.Handler) func() {
		return func() {
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/estimate", bytes.NewReader(body)))
		}
	}
	noop := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})
	handler = testing.AllocsPerRun(200, call(sh.srv.Handler())) - testing.AllocsPerRun(200, call(noop))
	return parse, handler
}

// swapped records a writer's swap in the trace and mirrors it onto the
// shadow so its caches keep following the replica's.
func (tr *tracer) swapped(name string, catBytes []byte, decode, swap [2]time.Time) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.nextReq++
	req := tr.nextReq
	tr.add(req, 0, "catalog.decode", decode[0], decode[1])
	tr.add(req, 0, "serve.swap", swap[0], swap[1])
	return tr.sh.swap(name, catBytes)
}

// writeSpans writes the recorded spans as JSON lines.
func (tr *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range tr.spans {
		if err := enc.Encode(&tr.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// med returns the median of a named sample set (0 when absent).
func (tr *tracer) med(name string) float64 {
	if len(tr.samples[name]) == 0 {
		return 0
	}
	return median(tr.samples[name])
}

// selfTable prints the per-layer self-time breakdown of one request:
// each part's median and its share of the median round trip. Wire and
// self times are residuals, so the parts sum to the round trip by
// construction (up to the medians). The independent check is the no-op
// round trip plus the handler against the served round trip, which can
// fail to match; selfTable returns that ratio.
func (tr *tracer) selfTable(w io.Writer) float64 {
	rtt := tr.med("client.request_us")
	// Each part is one per-request sample set; batch parts recorded in
	// milliseconds are scaled back to microseconds.
	type part struct {
		name  string
		scale float64
	}
	var parts []part
	switch {
	case tr.sp.batch > 0:
		parts = []part{{"serve.wire_us", 1}, {"serve.batch_self_ms", 1000}, {"twig.batch_parse_us", 1}, {"xsketch.batch_estimate_ms", 1000}}
	case tr.ring != nil:
		parts = []part{{"router.hop_us", 1}, {"serve.wire_us", 1}, {"serve.self_us", 1}, {"twig.parse_us", 1}, {"xsketch.plan_us", 1}, {"plan.exec_us", 1}}
	default:
		parts = []part{{"serve.wire_us", 1}, {"serve.self_us", 1}, {"twig.parse_us", 1}, {"xsketch.plan_us", 1}, {"plan.exec_us", 1}}
	}
	fmt.Fprintf(w, "per-layer self time, %s (%d sampled requests, medians; wire and self are residuals)\n", tr.sp.name, len(tr.samples["client.request_us"]))
	fmt.Fprintf(w, "  %-28s %12s %8s\n", "part", "median_us", "share")
	fmt.Fprintf(w, "  %-28s %12.2f %7.1f%%\n", "client.request (round trip)", rtt, 100.0)
	sum := 0.0
	for _, p := range parts {
		v := tr.med(p.name) * p.scale
		sum += v
		fmt.Fprintf(w, "  %-28s %12.2f %7.1f%%\n", p.name, v, 100*v/rtt)
	}
	fmt.Fprintf(w, "  %-28s %12.2f %7.1f%%\n", "sum of parts", sum, 100*sum/rtt)
	served, accounted := tr.med("check.served_us"), tr.med("check.accounted_us")
	fmt.Fprintf(w, "  check: no-op round trip + handler = %.2f us (no-op alone %.2f) against a served round trip of %.2f us (%.1f%%)\n",
		accounted, tr.med("wire.noop_us"), served, 100*accounted/served)
	defer fmt.Fprintln(w)
	fmt.Fprintf(w, "  all sampled layers:\n")
	for _, k := range sortedKeys(tr.samples) {
		fmt.Fprintf(w, "    %-28s n=%-7d median=%.3f\n", k, len(tr.samples[k]), tr.med(k))
	}
	return accounted / served
}
