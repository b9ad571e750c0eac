package serve

import (
	"net/http"
	"strconv"

	"xsketch/internal/accuracy"
	"xsketch/internal/httpfront"
	"xsketch/internal/plan"
	core "xsketch/internal/xsketch"
)

// auditSampled decides whether this request's estimate joins the audit
// sample: the httpfront.AuditSampleHeader override wins, otherwise the
// trace-ID hash decides. Only called with auditing enabled.
func (s *Server) auditSampled(r *http.Request, tid string) bool {
	if v := r.Header.Get(httpfront.AuditSampleHeader); v != "" {
		b, err := strconv.ParseBool(v)
		return err == nil && b
	}
	return s.aud.ShouldSample(tid)
}

// auditSampledItem is auditSampled for one batch item: the override
// header still wins, otherwise items sample independently by index.
func (s *Server) auditSampledItem(r *http.Request, tid string, item int) bool {
	if v := r.Header.Get(httpfront.AuditSampleHeader); v != "" {
		b, err := strconv.ParseBool(v)
		return err == nil && b
	}
	return s.aud.ShouldSampleItem(tid, item)
}

// auditEstimate submits one served estimate to the auditor. The record
// carries the entry's swap count, so replays can tell which synopsis
// generation produced the estimate; the state's document (nil for
// detached catalog sketches) decides whether the online ground-truth loop
// can audit it.
func (s *Server) auditEstimate(e *entry, st *sketchState, p *plan.Program, tid string, res core.EstimateResult) {
	s.aud.Submit(accuracy.Record{
		Sketch:     e.name,
		Query:      p.Canonical,
		Estimate:   res.Estimate,
		Truncated:  res.Truncated,
		Generation: e.swaps.Load(),
		TraceID:    tid,
	}, st.sk.Document(), p.Query)
}
