package httpfront

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"xsketch/internal/obs"
)

// TraceIDHeader carries the request's trace ID in both directions:
// clients may supply one for cross-service correlation, the router
// forwards its ID to the replica, and every response echoes the ID that
// tagged the tier's log lines.
const TraceIDHeader = "X-Trace-Id"

// AuditSampleHeader overrides a replica's audit-sampling decision for one
// request: a true value (strconv.ParseBool spellings) forces the estimate
// into the audit sample, a false value suppresses it, absence defers to
// the trace-ID hash. The router forwards it untouched, so a client or a
// shadow-test harness controls sampling identically through either tier.
const AuditSampleHeader = "X-Audit-Sample"

// Limits both tiers apply when their config leaves them zero.
const (
	// DefaultMaxBodyBytes bounds a request body (1 MiB).
	DefaultMaxBodyBytes int64 = 1 << 20
	// DefaultMaxBatchQueries bounds the query count of one batch request.
	DefaultMaxBatchQueries = 4096
)

type traceKey struct{}

// TraceID reads the request's assigned trace ID (set by Instrument).
func TraceID(r *http.Request) string {
	if id, ok := r.Context().Value(traceKey{}).(string); ok {
		return id
	}
	return ""
}

// statusRecorder captures the response status for metrics and logs.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.code = code
	sr.ResponseWriter.WriteHeader(code)
}

// Instrument wraps a handler with the per-request observability chain:
// trace-ID assignment (honoring a client-supplied header), counting in
// requests by path and status code, and one structured JSON log line
// (log may be nil).
func Instrument(requests *obs.CounterVec, log *obs.Logger, path string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tid := r.Header.Get(TraceIDHeader)
		if tid == "" {
			tid = obs.NewTraceID()
		}
		w.Header().Set(TraceIDHeader, tid)
		r = r.WithContext(context.WithValue(r.Context(), traceKey{}, tid))
		sr := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		h(sr, r)
		elapsed := time.Since(start)
		requests.With(path, strconv.Itoa(sr.code)).Inc()
		log.Info("request",
			"trace_id", tid,
			"method", r.Method,
			"path", path,
			"status", sr.code,
			"elapsed_seconds", elapsed.Seconds(),
			"remote", r.RemoteAddr,
		)
	}
}

// ErrorResponse is the body of every non-2xx JSON answer, in both tiers.
type ErrorResponse struct {
	Error   string `json:"error"`
	TraceID string `json:"trace_id"`
}

// WriteError answers code with an ErrorResponse carrying err's text.
func WriteError(w http.ResponseWriter, code int, tid string, err error) {
	WriteJSON(w, code, ErrorResponse{Error: err.Error(), TraceID: tid})
}

// WriteJSON answers code with v encoded as one line of JSON.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// Metrics serves reg in the Prometheus text exposition format.
func Metrics(reg *obs.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WriteTo(w)
	}
}

// ReadBody reads a request body of at most limit bytes. It answers 413
// for a larger body and 400 for one that cannot be read, and reports
// whether the caller may proceed.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64, tid string) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			WriteError(w, http.StatusRequestEntityTooLarge, tid,
				fmt.Errorf("request body exceeds %d bytes", limit))
			return nil, false
		}
		WriteError(w, http.StatusBadRequest, tid, fmt.Errorf("reading request body: %w", err))
		return nil, false
	}
	return body, true
}

// CheckBatch applies the batch-shape rules, given a batch's query count,
// its explain-flag count and the query limit: an empty batch answers 400,
// one over the limit 413, and explain flags that are present but not
// parallel to the queries 400. It reports whether the caller may proceed.
func CheckBatch(w http.ResponseWriter, tid string, queries, explain, limit int) bool {
	switch {
	case queries == 0:
		WriteError(w, http.StatusBadRequest, tid, errors.New("empty batch"))
	case queries > limit:
		WriteError(w, http.StatusRequestEntityTooLarge, tid,
			fmt.Errorf("batch of %d queries exceeds limit %d", queries, limit))
	case explain > 0 && explain != queries:
		WriteError(w, http.StatusBadRequest, tid,
			fmt.Errorf("explain flags length %d != queries length %d", explain, queries))
	default:
		return true
	}
	return false
}
