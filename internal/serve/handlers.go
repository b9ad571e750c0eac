package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"xsketch/internal/httpfront"
	"xsketch/internal/trace"
	core "xsketch/internal/xsketch"
)

// estimateRequest is the body of POST /estimate.
type estimateRequest struct {
	// Sketch names the synopsis to estimate against; optional when the
	// server serves exactly one.
	Sketch string `json:"sketch"`
	// Query is a twig query in the paper's for-clause notation.
	Query string `json:"query"`
}

// estimateResponse is the body of a successful POST /estimate.
type estimateResponse struct {
	Sketch         string  `json:"sketch"`
	Query          string  `json:"query"`
	Estimate       float64 `json:"estimate"`
	Truncated      bool    `json:"truncated"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	TraceID        string  `json:"trace_id"`
	// Explanation is the structured estimation trace, present only when
	// the request asked for ?explain=true.
	Explanation *trace.Trace `json:"explanation,omitempty"`
}

// batchRequest is the body of POST /estimate/batch.
type batchRequest struct {
	Sketch  string   `json:"sketch"`
	Queries []string `json:"queries"`
	// Workers overrides the server's batch worker count for this request
	// (clamped to the server setting as an upper bound; 0 keeps it).
	Workers int `json:"workers"`
	// Explain, when non-empty, must parallel Queries: items flagged true
	// are estimated with tracing and carry an explanation in their result.
	Explain []bool `json:"explain"`
}

// batchResponse is the body of a successful POST /estimate/batch.
type batchResponse struct {
	Sketch         string        `json:"sketch"`
	Count          int           `json:"count"`
	Results        []batchResult `json:"results"`
	ElapsedSeconds float64       `json:"elapsed_seconds"`
	TraceID        string        `json:"trace_id"`
}

// batchResult is one query's outcome inside a batch response, in request
// order.
type batchResult struct {
	Estimate  float64 `json:"estimate"`
	Truncated bool    `json:"truncated"`
	// Explanation is present only for items whose explain flag was true.
	Explanation *trace.Trace `json:"explanation,omitempty"`
	// Error reports a per-item explain failure. The item's estimate fields
	// are zero and must be ignored; the rest of the batch is unaffected.
	Error string `json:"error,omitempty"`
}

// explainRequested reads the ?explain= query parameter (accepting the
// strconv.ParseBool spellings; absent or malformed means false).
func explainRequested(r *http.Request) bool {
	v, err := strconv.ParseBool(r.URL.Query().Get("explain"))
	return err == nil && v
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	tid := httpfront.TraceID(r)
	var req estimateRequest
	if !s.decodeBody(w, r, tid, &req) {
		return
	}
	e, err := s.lookup(req.Sketch)
	if err != nil {
		httpfront.WriteError(w, http.StatusNotFound, tid, err)
		return
	}
	// One atomic load pins this request to a single synopsis generation:
	// a concurrent hot swap never changes the sketch mid-estimate.
	st := e.state.Load()
	if !s.admit(w, tid) {
		return
	}
	defer s.release()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	// The query resolves the way batch items do: a plan hit on any
	// spelling skips the parse, and a miss parses and compiles here,
	// under admission. ?explain=true runs the traced interpreter over the
	// plan's parsed query; it is bit-identical to the plan.
	start := time.Now()
	p, err := st.sk.PlanQueryText(req.Query)
	if err != nil {
		httpfront.WriteError(w, http.StatusBadRequest, tid, fmt.Errorf("malformed twig query: %w", err))
		return
	}
	var rec *trace.Recorder
	var res core.EstimateResult
	if explainRequested(r) {
		rec = trace.NewRecorder(trace.Options{})
		res, err = st.sk.EstimateQueryTraced(ctx, p.Query, rec)
	} else {
		res, err = st.sk.EstimatePlanContext(ctx, p)
	}
	if err != nil {
		s.writeEstimateError(w, tid, err)
		return
	}
	elapsed := time.Since(start)
	s.m.estLatency.Observe(elapsed.Seconds())
	s.m.observeTrace(rec)
	if res.Truncated {
		s.m.truncated.With(e.name).Inc()
	}
	if s.aud != nil && s.auditSampled(r, tid) {
		s.auditEstimate(e, st, p, tid, res)
	}
	resp := estimateResponse{
		Sketch:         e.name,
		Query:          p.Canonical,
		Estimate:       res.Estimate,
		Truncated:      res.Truncated,
		ElapsedSeconds: elapsed.Seconds(),
		TraceID:        tid,
	}
	if rec != nil {
		resp.Explanation = rec.Trace()
	}
	httpfront.WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleEstimateBatch(w http.ResponseWriter, r *http.Request) {
	tid := httpfront.TraceID(r)
	var req batchRequest
	if !s.decodeBody(w, r, tid, &req) {
		return
	}
	e, err := s.lookup(req.Sketch)
	if err != nil {
		httpfront.WriteError(w, http.StatusNotFound, tid, err)
		return
	}
	st := e.state.Load()
	if !httpfront.CheckBatch(w, tid, len(req.Queries), len(req.Explain), s.cfg.MaxBatchQueries) {
		return
	}
	workers := s.cfg.BatchWorkers
	if req.Workers > 0 && (workers <= 0 || req.Workers < workers) {
		workers = req.Workers
	}
	if !s.admit(w, tid) {
		return
	}
	defer s.release()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	// Every item is parsed (on a plan miss) and planned on the batch pool;
	// items flagged for explanation are only planned there and run traced
	// below, one at a time. Estimation is pure, so the split is
	// bit-identical to an all-batch run. Parsing on the pool means a
	// malformed item is found after admission, once the pool is done.
	start := time.Now()
	items, err := st.sk.EstimateBatchTextContext(ctx, req.Queries, req.Explain, workers)
	if err != nil {
		s.writeEstimateError(w, tid, err)
		return
	}
	out := make([]batchResult, len(items))
	for i := range items {
		if items[i].Err != nil {
			httpfront.WriteError(w, http.StatusBadRequest, tid, fmt.Errorf("malformed twig query %d: %w", i, items[i].Err))
			return
		}
		out[i] = batchResult{Estimate: items[i].Result.Estimate, Truncated: items[i].Result.Truncated}
	}
	// Explained items fail independently: one item's error (a cancelled
	// trace, an injected fault) is recorded on that item alone and never
	// discards or reorders the rest of the batch.
	for i := range items {
		if len(req.Explain) == 0 || !req.Explain[i] {
			continue
		}
		rec := trace.NewRecorder(trace.Options{})
		res, err := st.sk.EstimateQueryTraced(ctx, items[i].Plan.Query, rec)
		if err == nil && s.testHookExplainItem != nil {
			err = s.testHookExplainItem(i)
		}
		if err != nil {
			s.m.batchItemErrs.Inc()
			out[i] = batchResult{Error: fmt.Sprintf("explain item %d: %v", i, err)}
			continue
		}
		s.m.observeTrace(rec)
		out[i] = batchResult{Estimate: res.Estimate, Truncated: res.Truncated, Explanation: rec.Trace()}
	}
	elapsed := time.Since(start)
	s.m.batchLat.Observe(elapsed.Seconds())
	s.m.batchSize.Add(uint64(len(items)))
	for i := range out {
		if out[i].Truncated {
			s.m.truncated.With(e.name).Inc()
		}
	}
	if s.aud != nil {
		for i := range items {
			// Items that failed carry no estimate to audit.
			if out[i].Error != "" || !s.auditSampledItem(r, tid, i) {
				continue
			}
			s.auditEstimate(e, st, items[i].Plan, tid,
				core.EstimateResult{Estimate: out[i].Estimate, Truncated: out[i].Truncated})
		}
	}
	httpfront.WriteJSON(w, http.StatusOK, batchResponse{
		Sketch:         e.name,
		Count:          len(out),
		Results:        out,
		ElapsedSeconds: elapsed.Seconds(),
		TraceID:        tid,
	})
}

// sketchInfo is one entry of the GET /sketches listing.
type sketchInfo struct {
	Name      string        `json:"name"`
	Source    string        `json:"source,omitempty"`
	Nodes     int           `json:"nodes"`
	Edges     int           `json:"edges"`
	SizeBytes int           `json:"size_bytes"`
	Swaps     uint64        `json:"swaps"`
	Estimator estimatorInfo `json:"estimator"`
}

// estimatorInfo is a sketch's estimation-cache snapshot in JSON form.
type estimatorInfo struct {
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Evictions uint64  `json:"evictions"`
	HitRate   float64 `json:"hit_rate"`
}

func (s *Server) handleSketches(w http.ResponseWriter, r *http.Request) {
	out := make([]sketchInfo, 0, len(s.names))
	for _, name := range s.names {
		e := s.entries[name]
		st := e.state.Load()
		cs := st.sk.EstimatorStats()
		out = append(out, sketchInfo{
			Name:      e.name,
			Source:    st.source,
			Nodes:     st.nodes,
			Edges:     st.edges,
			SizeBytes: st.sizeBytes,
			Swaps:     e.swaps.Load(),
			Estimator: estimatorInfo{
				Hits:      cs.Hits,
				Misses:    cs.Misses,
				Evictions: cs.Evictions,
				HitRate:   cs.HitRate(),
			},
		})
	}
	httpfront.WriteJSON(w, http.StatusOK, out)
}

// healthResponse is the body of GET /healthz. The explicit Draining flag
// exists for probers: a draining replica answers 503 exactly like a dead
// one would (load balancers must stop routing either way), but the body
// lets a router tell "drain soon, still finishing in-flight work" apart
// from "gone" — and skip the replica without firing retry alarms.
type healthResponse struct {
	Status        string  `json:"status"`
	Draining      bool    `json:"draining"`
	Sketches      int     `json:"sketches"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Generations maps each served sketch to its hot-swap count, so a
	// router tier (or an operator mid-rolling-reload) can spot replicas
	// serving different catalog generations without scraping metrics.
	Generations map[string]uint64 `json:"generations"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	gens := make(map[string]uint64, len(s.names))
	for _, name := range s.names {
		gens[name] = s.entries[name].swaps.Load()
	}
	h := healthResponse{
		Status:        "ok",
		Sketches:      len(s.entries),
		UptimeSeconds: time.Since(s.start).Seconds(),
		Generations:   gens,
	}
	code := http.StatusOK
	if s.Draining() {
		h.Status = "draining"
		h.Draining = true
		code = http.StatusServiceUnavailable
	}
	httpfront.WriteJSON(w, code, h)
}

// admit takes a concurrency slot, answering 429 (with Retry-After) and
// counting the shed when the server is saturated. It never queues: under
// overload the cheap rejection keeps tail latency of admitted requests
// intact instead of letting a queue grow without bound.
func (s *Server) admit(w http.ResponseWriter, tid string) bool {
	select {
	case s.sem <- struct{}{}:
		s.m.inFlight.Add(1)
		if s.testHookEstimate != nil {
			s.testHookEstimate()
		}
		return true
	default:
		s.m.shed.Inc()
		w.Header().Set("Retry-After", "1")
		httpfront.WriteError(w, http.StatusTooManyRequests, tid,
			fmt.Errorf("server at concurrency limit %d", s.cfg.MaxConcurrent))
		return false
	}
}

func (s *Server) release() {
	s.m.inFlight.Add(-1)
	<-s.sem
}

// decodeBody reads a size-limited JSON body into v, answering 413 for
// oversized and 400 for malformed input (unknown fields included). It
// reports whether the caller may proceed.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, tid string, v any) bool {
	body, ok := httpfront.ReadBody(w, r, s.cfg.MaxBodyBytes, tid)
	if !ok {
		return false
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		httpfront.WriteError(w, http.StatusBadRequest, tid, fmt.Errorf("malformed request body: %w", err))
		return false
	}
	return true
}

// writeEstimateError maps estimation-context errors to status codes: a
// deadline is the per-request timeout (504), anything else means the
// client went away or the server is shutting down (503).
func (s *Server) writeEstimateError(w http.ResponseWriter, tid string, err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		s.m.timeouts.Inc()
		httpfront.WriteError(w, http.StatusGatewayTimeout, tid,
			fmt.Errorf("estimate exceeded request timeout %s", s.cfg.RequestTimeout))
		return
	}
	httpfront.WriteError(w, http.StatusServiceUnavailable, tid, fmt.Errorf("estimate cancelled: %w", err))
}
