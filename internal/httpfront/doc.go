// Package httpfront is the HTTP front that xserve's two tiers share: the
// replica (internal/serve) and the consistent-hash router
// (internal/router) answer requests through the same pieces, so a client
// sees one trace-ID contract, one error body, one body-size limit and one
// set of batch-shape rejections whichever tier it talks to.
//
// Instrument wraps every handler: it assigns the request's trace ID
// (honoring a client-supplied X-Trace-Id and echoing it on the response),
// counts the request in the tier's requests_total{path,code} family and
// writes one structured JSON log line. ReadBody enforces the body limit
// (413), CheckBatch the empty (400), over-limit (413) and explain-length
// (400) batch rules, WriteError/WriteJSON render every JSON answer and
// Metrics the /metrics exposition. Both tiers default their limits to
// DefaultMaxBodyBytes and DefaultMaxBatchQueries.
package httpfront
