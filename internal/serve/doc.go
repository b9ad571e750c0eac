// Package serve implements the xserve estimation service: a resident HTTP
// server (stdlib net/http only) that loads one or more built Twig XSKETCH
// synopses at startup and answers selectivity-estimation requests over
// them. See SERVING.md for the endpoint and metrics reference and
// DESIGN.md §9 for the architecture.
//
// Endpoints: POST /estimate (one twig query), POST /estimate/batch (a
// workload fanned into the xsketch batch worker pool), GET /sketches
// (loaded synopses with estimator-cache stats), POST /admin/reload (hot
// swap from the catalog), GET /healthz, GET /metrics (Prometheus text
// format via internal/obs), and optionally /debug/pprof.
//
// The trace-ID middleware, request counting, JSON and error writers, the
// body-size limit and the batch-shape checks come from internal/httpfront,
// which the router shares; this package adds what only a replica does.
// Every estimate runs after admission to a fixed-size semaphore that sheds
// excess load with 429 instead of queuing unboundedly, and under a
// per-request timeout whose context cancellation propagates into the
// estimation engine. A point query and each batch item resolve their text
// the same way, through Sketch.PlanQueryText, so a plan-cache hit skips
// the parse; the plan runs with Sketch.EstimatePlanContext, or its parsed
// query with Sketch.EstimateQueryTraced for ?explain=true. Because
// estimation is read-only and the per-sketch caches store only pure
// results, concurrent serving returns values bit-identical to sequential
// Sketch.EstimateQuery calls.
package serve
