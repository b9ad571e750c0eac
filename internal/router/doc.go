// Package router is xserve's horizontal scale-out layer: a stdlib-only
// HTTP router that consistent-hashes sketch names across a fleet of
// backend xserve replicas, all loading the same sketch catalog.
//
// The router proxies POST /estimate to the shard owning the request's
// sketch name, fans POST /estimate/batch out shard-wise — each batch item
// is hashed by (sketch, query) so one large batch spreads over the whole
// fleet while repeated query shapes keep hitting the same replica's warm
// plan cache — and merges the per-item results back into input order with
// per-item error isolation: a shard that fails even after retry poisons
// only its own items, never the batch.
//
// A failed attempt (transport error, or a replica answering 502/503) is
// retried once against the next distinct backend on the ring, after a
// small backoff, under a per-attempt timeout. Client-level statuses
// (400/404/405/413/422/429/504) pass through untouched — they would fail
// identically on every replica, so retrying them only doubles work.
//
// A background prober keeps the ring honest: each backend's GET /healthz
// is polled on a fixed interval and classified three ways. A 200 is
// healthy; a 503 whose JSON body carries "draining":true is draining —
// the replica is finishing in-flight work before shutdown, so the router
// stops routing to it without counting errors or firing retries; anything
// else is down. Healthy probes re-include a backend automatically, and a
// transport failure during a proxied request marks the backend down
// immediately rather than waiting for the next probe tick.
//
// The trace-ID middleware, request counting, JSON and error writers, the
// body-size limit and the batch-shape checks come from internal/httpfront,
// which the replica shares, so the router rejects a bad request with the
// same status and error text a replica would, and forwards its trace ID
// and any X-Audit-Sample override to the replica.
//
// Because every replica serves the same catalog of stateless binary
// sketches, any backend can answer any request — consistent hashing is a
// cache-affinity optimization, not a correctness requirement, which is
// what makes the retry-anywhere strategy sound. Estimates through the
// router are bit-identical to direct replica calls: single-estimate
// bodies are relayed verbatim and batch merges splice raw JSON items,
// so no float64 is ever re-parsed on the way through.
package router
