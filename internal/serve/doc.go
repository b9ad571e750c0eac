// Package serve implements the xserve estimation service: a resident HTTP
// server (stdlib net/http only) that loads one or more built Twig XSKETCH
// synopses at startup and answers selectivity-estimation requests over
// them. See SERVING.md for the endpoint and metrics reference and
// DESIGN.md §9 for the architecture.
//
// Endpoints: POST /estimate (one twig query), POST /estimate/batch (a
// workload fanned into the xsketch batch worker pool), GET /sketches
// (loaded synopses with estimator-cache stats), GET /healthz, GET /metrics
// (Prometheus text format via internal/obs), and optionally /debug/pprof.
//
// The serving path is hardened the way a production estimator sidecar
// must be: request bodies are size-limited, every estimate runs under a
// per-request timeout whose context cancellation propagates into the
// estimation engine (Sketch.EstimatePlanContext, or
// Sketch.EstimateQueryTraced for ?explain=true), and admission is a
// fixed-size semaphore that sheds excess load with 429 instead of queuing
// unboundedly. Because estimation is read-only and the per-sketch memo
// cache stores only pure sub-results, concurrent serving returns values
// bit-identical to sequential Sketch.EstimateQuery calls.
package serve
