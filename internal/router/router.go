package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"xsketch/internal/httpfront"
	"xsketch/internal/obs"
)

// Config tunes the router. Zero values select the defaults noted on each
// field.
type Config struct {
	// AttemptTimeout bounds one proxy attempt against one backend; expiry
	// counts as a transport failure and triggers the retry. Default: 15s
	// (above the replicas' 10s estimation timeout, so a replica's own 504
	// arrives as a response instead of being cut off mid-flight).
	AttemptTimeout time.Duration
	// RetryBackoff is the pause before re-sending a failed attempt to the
	// next ring candidate. Default: 25ms.
	RetryBackoff time.Duration
	// ProbeInterval is the health-probe period per backend. Default: 1s.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /healthz probe. Default: 2s.
	ProbeTimeout time.Duration
	// MaxBodyBytes bounds a request body; larger bodies answer 413.
	// Default: 1 MiB.
	MaxBodyBytes int64
	// MaxBatchQueries bounds the query count of one batch request before
	// fan-out (the replicas' own limit applies per sub-batch, so the
	// router must enforce the request-level cap itself). Default: 4096.
	MaxBatchQueries int
	// VirtualNodes is the ring points per backend (<= 0 selects
	// DefaultVirtualNodes).
	VirtualNodes int
	// Logger receives one structured JSON line per request and per backend
	// state transition; nil disables logging.
	Logger *obs.Logger
}

func (c Config) withDefaults() Config {
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 15 * time.Second
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 25 * time.Millisecond
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = httpfront.DefaultMaxBodyBytes
	}
	if c.MaxBatchQueries <= 0 {
		c.MaxBatchQueries = httpfront.DefaultMaxBatchQueries
	}
	return c
}

// backendState is one backend's routability classification.
type backendState int32

const (
	// stateHealthy backends receive traffic.
	stateHealthy backendState = iota
	// stateDraining backends answered their last probe with a
	// draining:true body: they are finishing in-flight work before
	// shutdown. The router routes around them silently — no error
	// counters, no retries fired by the drain itself.
	stateDraining
	// stateDown backends failed their last probe or a proxied request's
	// transport; they rejoin the ring on the next successful probe (or
	// successful desperation attempt when nothing else is routable).
	stateDown
)

// String names the state for health listings and logs.
func (s backendState) String() string {
	switch s {
	case stateHealthy:
		return "healthy"
	case stateDraining:
		return "draining"
	default:
		return "down"
	}
}

// backend is one replica the router fans out to.
type backend struct {
	addr  string
	state atomic.Int32
}

// A Router consistent-hashes sketch names across a fleet of xserve
// replicas: it proxies estimates shard-wise, retries failed attempts
// against the next ring candidate, probes replica health in the
// background, and exposes its own metrics registry. Create with New,
// expose via Handler, start probing with StartProbing.
type Router struct {
	cfg      Config
	ring     *Ring
	backends map[string]*backend
	log      *obs.Logger
	reg      *obs.Registry
	m        *metrics
	client   *http.Client
	mux      *http.ServeMux
	draining atomic.Bool
	start    time.Time
}

// New builds a router over the given backend base URLs (e.g.
// "http://10.0.0.7:8080"). At least one backend is required; addresses
// must be absolute http/https URLs and duplicates collapse.
func New(cfg Config, backendAddrs []string) (*Router, error) {
	if len(backendAddrs) == 0 {
		return nil, fmt.Errorf("router: no backends configured")
	}
	for _, a := range backendAddrs {
		u, err := url.Parse(a)
		if err != nil {
			return nil, fmt.Errorf("router: backend %q: %v", a, err)
		}
		if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("router: backend %q must be an absolute http(s) URL", a)
		}
	}
	cfg = cfg.withDefaults()
	ring := NewRing(backendAddrs, cfg.VirtualNodes)
	rt := &Router{
		cfg:      cfg,
		ring:     ring,
		backends: make(map[string]*backend, len(ring.Backends())),
		log:      cfg.Logger,
		reg:      obs.NewRegistry(),
		client:   &http.Client{},
		start:    time.Now(),
	}
	for _, a := range ring.Backends() {
		rt.backends[a] = &backend{addr: a}
	}
	rt.m = newRouterMetrics(rt.reg, rt, ring.Backends())
	rt.mux = http.NewServeMux()
	in := func(path string, h http.HandlerFunc) http.HandlerFunc {
		return httpfront.Instrument(rt.m.requests, rt.log, path, h)
	}
	rt.mux.HandleFunc("POST /estimate", in("/estimate", rt.handleEstimate))
	rt.mux.HandleFunc("POST /estimate/batch", in("/estimate/batch", rt.handleEstimateBatch))
	rt.mux.HandleFunc("GET /sketches", in("/sketches", rt.handleSketches))
	rt.mux.HandleFunc("GET /healthz", in("/healthz", rt.handleHealthz))
	rt.mux.HandleFunc("GET /metrics", in("/metrics", httpfront.Metrics(rt.reg)))
	return rt, nil
}

// Handler returns the router's root handler, ready for an http.Server.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Backends returns the configured backend addresses, sorted.
func (rt *Router) Backends() []string { return rt.ring.Backends() }

// BackendStates reports each backend's current routability state by
// address ("healthy", "draining" or "down").
func (rt *Router) BackendStates() map[string]string {
	out := make(map[string]string, len(rt.backends))
	for a, b := range rt.backends {
		out[a] = backendState(b.state.Load()).String()
	}
	return out
}

// SetDraining marks the router itself as draining: its /healthz answers
// 503 (with draining:true) so upstream load balancers stop routing here,
// while in-flight proxies still complete. Call it right before
// http.Server.Shutdown.
func (rt *Router) SetDraining(v bool) { rt.draining.Store(v) }

// Draining reports whether SetDraining(true) was called.
func (rt *Router) Draining() bool { return rt.draining.Load() }

// setState applies a backend state transition, mirroring it into the
// health gauges and logging only actual changes.
func (rt *Router) setState(b *backend, st backendState, reason string) {
	old := backendState(b.state.Swap(int32(st)))
	if old == st {
		return
	}
	rt.m.observeState(b.addr, st)
	rt.log.Info("backend state",
		"backend", b.addr,
		"from", old.String(),
		"to", st.String(),
		"reason", reason,
	)
}

// routableCount counts healthy backends.
func (rt *Router) routableCount() int {
	n := 0
	for _, b := range rt.backends {
		if backendState(b.state.Load()) == stateHealthy {
			n++
		}
	}
	return n
}

// candidatesFor orders the key's ring candidates for attempting: healthy
// backends first (in ring order), then — only if none are healthy — the
// draining and down ones as a last resort, so the router degrades to
// "try anything" rather than failing outright when the whole fleet looks
// unhealthy (e.g. before the first probe after a mass restart).
func (rt *Router) candidatesFor(key string) []*backend {
	cands := rt.ring.Candidates(key)
	routable := make([]*backend, 0, len(cands))
	rest := make([]*backend, 0, len(cands))
	for _, addr := range cands {
		b := rt.backends[addr]
		if backendState(b.state.Load()) == stateHealthy {
			routable = append(routable, b)
		} else {
			rest = append(rest, b)
		}
	}
	if len(routable) == 0 {
		return rest
	}
	return routable
}

// attemptResult is one proxied response, body fully read.
type attemptResult struct {
	status  int
	header  http.Header
	body    []byte
	backend string
}

// retryableStatus reports whether a replica status should be retried on
// the next ring candidate. 502/503 mean "this replica cannot serve right
// now"; every other status is a request-level answer that would repeat
// identically elsewhere.
func retryableStatus(code int) bool {
	return code == http.StatusBadGateway || code == http.StatusServiceUnavailable
}

// forward proxies method+path with the given body through the key's ring
// candidates: the owner first, then — after RetryBackoff — one retry
// against the next candidate. It returns the first non-retryable
// response, or an error when every attempt failed. audit is the request's
// X-Audit-Sample override, forwarded verbatim (empty omits the header).
func (rt *Router) forward(ctx context.Context, key, method, path string, body []byte, tid, audit string) (attemptResult, error) {
	cands := rt.candidatesFor(key)
	if len(cands) == 0 {
		return attemptResult{}, errors.New("no backends on the ring")
	}
	const maxAttempts = 2 // the owner plus one retry on the next candidate
	attempts := len(cands)
	if attempts > maxAttempts {
		attempts = maxAttempts
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		b := cands[i]
		if i > 0 {
			rt.m.retries.Inc()
			select {
			case <-time.After(rt.cfg.RetryBackoff):
			case <-ctx.Done():
				return attemptResult{}, ctx.Err()
			}
		}
		res, err := rt.attempt(ctx, b, method, path, body, tid, audit)
		if err != nil {
			rt.m.shardErr.With(b.addr, errKindTransport).Inc()
			rt.setState(b, stateDown, "proxy transport failure")
			lastErr = fmt.Errorf("backend %s: %w", b.addr, err)
			continue
		}
		if retryableStatus(res.status) {
			rt.m.shardErr.With(b.addr, errKindUnavailable).Inc()
			lastErr = fmt.Errorf("backend %s answered %d", b.addr, res.status)
			continue
		}
		// Any conclusive answer proves the backend is alive, even if the
		// answer is a client error — re-include it without waiting for the
		// next probe tick.
		rt.setState(b, stateHealthy, "proxy success")
		return res, nil
	}
	rt.m.shardErr.With(cands[attempts-1].addr, errKindExhausted).Inc()
	return attemptResult{}, fmt.Errorf("all %d attempts failed: %w", attempts, lastErr)
}

// attempt sends one proxy request to one backend under the per-attempt
// timeout, counting the shard request and its latency.
func (rt *Router) attempt(ctx context.Context, b *backend, method, path string, body []byte, tid, audit string) (attemptResult, error) {
	rt.m.shardReq.With(b.addr).Inc()
	actx, cancel := context.WithTimeout(ctx, rt.cfg.AttemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, method, b.addr+path, bytes.NewReader(body))
	if err != nil {
		return attemptResult{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Forward the router's trace ID so one request carries one ID across
	// the fleet: the replica echoes it into its own logs and response.
	req.Header.Set(httpfront.TraceIDHeader, tid)
	// An audit-sampling override rides through unchanged, so clients (and
	// shadow-test harnesses) control replica-side accuracy sampling
	// identically whether they talk to a replica or the router. Without
	// the header, replicas hash the forwarded trace ID — the same
	// deterministic decision fleet-wide.
	if audit != "" {
		req.Header.Set(httpfront.AuditSampleHeader, audit)
	}
	start := time.Now()
	resp, err := rt.client.Do(req)
	if err != nil {
		rt.m.shardLat.With(b.addr).Observe(time.Since(start).Seconds())
		return attemptResult{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	rt.m.shardLat.With(b.addr).Observe(time.Since(start).Seconds())
	if err != nil {
		return attemptResult{}, err
	}
	return attemptResult{status: resp.StatusCode, header: resp.Header, body: data, backend: b.addr}, nil
}

// relay writes a proxied response through to the client, preserving the
// replica's status, body and the headers that matter (content type and
// backpressure hints).
func (rt *Router) relay(w http.ResponseWriter, res attemptResult) {
	if ct := res.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := res.header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// estimateRequest is the slice of the /estimate body the router needs for
// routing; the full body is forwarded verbatim, so unknown fields are the
// replica's to judge.
type estimateRequest struct {
	Sketch string `json:"sketch"`
}

func (rt *Router) handleEstimate(w http.ResponseWriter, r *http.Request) {
	tid := httpfront.TraceID(r)
	body, ok := httpfront.ReadBody(w, r, rt.cfg.MaxBodyBytes, tid)
	if !ok {
		return
	}
	var req estimateRequest
	if err := json.Unmarshal(body, &req); err != nil {
		httpfront.WriteError(w, http.StatusBadRequest, tid, fmt.Errorf("malformed request body: %w", err))
		return
	}
	// Single estimates shard by sketch name alone: all of one sketch's
	// point queries land on its owner replica, whose estimator and plan
	// caches stay hot for exactly that sketch.
	res, err := rt.forward(r.Context(), req.Sketch, http.MethodPost, "/estimate?"+r.URL.RawQuery, body, tid, r.Header.Get(httpfront.AuditSampleHeader))
	if err != nil {
		httpfront.WriteError(w, http.StatusBadGateway, tid, fmt.Errorf("estimate failed on every candidate: %w", err))
		return
	}
	rt.relay(w, res)
}

// batchRequest mirrors the replica's batch body closely enough to fan it
// out: items are re-grouped by shard and everything else is copied into
// each sub-request.
type batchRequest struct {
	Sketch  string   `json:"sketch"`
	Queries []string `json:"queries"`
	Workers int      `json:"workers"`
	Explain []bool   `json:"explain"`
}

// batchResponse is the merged body the router answers batches with.
// Results hold the replicas' item objects verbatim (raw JSON splicing —
// no float64 is re-parsed on the way through, so merged estimates are
// bit-identical to direct replica calls).
type batchResponse struct {
	Sketch         string            `json:"sketch"`
	Count          int               `json:"count"`
	Results        []json.RawMessage `json:"results"`
	ElapsedSeconds float64           `json:"elapsed_seconds"`
	TraceID        string            `json:"trace_id"`
}

// shardGroup is the slice of one batch routed to a single backend.
type shardGroup struct {
	key   string // ring key of the group's first item, anchor for retries
	items []int  // original batch indices, ascending
	res   attemptResult
	err   error
}

func (rt *Router) handleEstimateBatch(w http.ResponseWriter, r *http.Request) {
	tid := httpfront.TraceID(r)
	body, ok := httpfront.ReadBody(w, r, rt.cfg.MaxBodyBytes, tid)
	if !ok {
		return
	}
	var req batchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		httpfront.WriteError(w, http.StatusBadRequest, tid, fmt.Errorf("malformed request body: %w", err))
		return
	}
	if !httpfront.CheckBatch(w, tid, len(req.Queries), len(req.Explain), rt.cfg.MaxBatchQueries) {
		return
	}

	// Partition items by shard. Batch items hash by (sketch, query) — not
	// by sketch alone — so one big batch spreads across the fleet while
	// repeated query shapes still pin to one replica's warm plan cache.
	// Grouping follows input order, so the group list (and therefore every
	// downstream merge decision) is deterministic for a given request and
	// fleet state.
	groupIdx := make(map[string]int)
	var groups []*shardGroup
	for i, q := range req.Queries {
		key := req.Sketch + "\x00" + q
		cands := rt.candidatesFor(key)
		if len(cands) == 0 {
			httpfront.WriteError(w, http.StatusBadGateway, tid, errors.New("no backends on the ring"))
			return
		}
		addr := cands[0].addr
		gi, ok := groupIdx[addr]
		if !ok {
			gi = len(groups)
			groupIdx[addr] = gi
			groups = append(groups, &shardGroup{key: key})
		}
		groups[gi].items = append(groups[gi].items, i)
	}
	rt.m.fanout.Observe(float64(len(groups)))

	// Fan the sub-batches out concurrently; each group retries through its
	// own anchor key's candidate order independently.
	audit := r.Header.Get(httpfront.AuditSampleHeader)
	start := time.Now()
	var wg sync.WaitGroup
	for _, g := range groups {
		wg.Add(1)
		go func(g *shardGroup) {
			defer wg.Done()
			sub := batchRequest{Sketch: req.Sketch, Workers: req.Workers}
			sub.Queries = make([]string, len(g.items))
			for j, i := range g.items {
				sub.Queries[j] = req.Queries[i]
			}
			if len(req.Explain) > 0 {
				sub.Explain = make([]bool, len(g.items))
				for j, i := range g.items {
					sub.Explain[j] = req.Explain[i]
				}
			}
			subBody, err := json.Marshal(sub)
			if err != nil {
				g.err = err
				return
			}
			g.res, g.err = rt.forward(r.Context(), g.key, http.MethodPost, "/estimate/batch", subBody, tid, audit)
		}(g)
	}
	wg.Wait()

	// A request-level client error (unknown sketch, malformed query,
	// replica shedding) would repeat on every shard, so relay the first
	// group's verdict — "first" by lowest original item index, which the
	// group construction order already guarantees.
	for _, g := range groups {
		if g.err == nil && g.res.status != http.StatusOK {
			rt.relay(w, g.res)
			return
		}
	}

	// Merge: scatter each group's raw result items back to their original
	// positions. A group that failed even after retry poisons only its own
	// items — each gets an error object while every other shard's results
	// survive with their exact bytes.
	out := make([]json.RawMessage, len(req.Queries))
	sketchName := req.Sketch
	itemErrs := 0
	for _, g := range groups {
		if g.err != nil {
			msg, _ := json.Marshal(fmt.Sprintf("shard failed: %v", g.err))
			item := json.RawMessage(fmt.Sprintf(`{"estimate":0,"truncated":false,"error":%s}`, msg))
			for _, i := range g.items {
				out[i] = item
				itemErrs++
			}
			continue
		}
		var sub batchResponse
		if uerr := json.Unmarshal(g.res.body, &sub); uerr != nil || len(sub.Results) != len(g.items) {
			msg, _ := json.Marshal(fmt.Sprintf("shard %s answered an unparseable batch body", g.res.backend))
			item := json.RawMessage(fmt.Sprintf(`{"estimate":0,"truncated":false,"error":%s}`, msg))
			for _, i := range g.items {
				out[i] = item
				itemErrs++
			}
			continue
		}
		if sub.Sketch != "" {
			sketchName = sub.Sketch
		}
		for j, i := range g.items {
			out[i] = sub.Results[j]
		}
	}
	if itemErrs > 0 {
		rt.log.Info("batch merged with shard failures",
			"trace_id", tid, "items", len(out), "failed_items", itemErrs, "shards", len(groups))
	}
	httpfront.WriteJSON(w, http.StatusOK, batchResponse{
		Sketch:         sketchName,
		Count:          len(out),
		Results:        out,
		ElapsedSeconds: time.Since(start).Seconds(),
		TraceID:        tid,
	})
}

func (rt *Router) handleSketches(w http.ResponseWriter, r *http.Request) {
	tid := httpfront.TraceID(r)
	// Every replica serves the same catalog, so any healthy backend's
	// listing is authoritative; the empty key picks a stable owner.
	res, err := rt.forward(r.Context(), "", http.MethodGet, "/sketches", nil, tid, "")
	if err != nil {
		httpfront.WriteError(w, http.StatusBadGateway, tid, fmt.Errorf("sketches failed on every candidate: %w", err))
		return
	}
	rt.relay(w, res)
}

// routerHealth is the body of the router's GET /healthz.
type routerHealth struct {
	Status        string          `json:"status"`
	Draining      bool            `json:"draining"`
	Healthy       int             `json:"healthy"`
	Backends      []backendHealth `json:"backends"`
	UptimeSeconds float64         `json:"uptime_seconds"`
}

// backendHealth is one backend's entry in the router health listing.
type backendHealth struct {
	Addr  string `json:"addr"`
	State string `json:"state"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := routerHealth{
		Status:        "ok",
		Healthy:       rt.routableCount(),
		UptimeSeconds: time.Since(rt.start).Seconds(),
	}
	for _, addr := range rt.ring.Backends() {
		h.Backends = append(h.Backends, backendHealth{
			Addr:  addr,
			State: backendState(rt.backends[addr].state.Load()).String(),
		})
	}
	code := http.StatusOK
	switch {
	case rt.Draining():
		h.Status = "draining"
		h.Draining = true
		code = http.StatusServiceUnavailable
	case h.Healthy == 0:
		h.Status = "unavailable"
		code = http.StatusServiceUnavailable
	}
	httpfront.WriteJSON(w, code, h)
}
