package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	core "xsketch/internal/xsketch"
)

// request is one prepared HTTP call: its body and the estimate bits every
// answer must carry, one per item.
type request struct {
	name  string   // sketch name addressed
	texts []string // query texts, one per item
	body  []byte
	want  []uint64
}

// singleBody and batchBody are the wire shapes of the two endpoints.
type singleBody struct {
	Sketch string `json:"sketch"`
	Query  string `json:"query"`
}

type batchBody struct {
	Sketch  string   `json:"sketch"`
	Queries []string `json:"queries"`
}

// buildRequests prepares the request cycle. Single workloads alternate
// names within each pass over the queries; batch workloads cover the
// served queries once per cycle in consecutive 64-item slices (the last
// one wraps), so a query recurs only after every other one has been sent.
func buildRequests(sp spec, qs querySet, names []string) ([]request, error) {
	var reqs []request
	if sp.batch == 0 {
		for i := range qs.texts {
			for _, name := range names {
				b, err := json.Marshal(singleBody{Sketch: name, Query: qs.texts[i]})
				if err != nil {
					return nil, err
				}
				reqs = append(reqs, request{name: name, texts: qs.texts[i : i+1], body: b,
					want: []uint64{math.Float64bits(qs.expected[i])}})
			}
		}
		return reqs, nil
	}
	n := len(qs.texts)
	for start := 0; start < n; start += sp.batch {
		r := request{name: names[0]}
		for j := 0; j < sp.batch; j++ {
			k := (start + j) % n
			r.texts = append(r.texts, qs.texts[k])
			r.want = append(r.want, math.Float64bits(qs.expected[k]))
		}
		b, err := json.Marshal(batchBody{Sketch: r.name, Queries: r.texts})
		if err != nil {
			return nil, err
		}
		r.body = b
		reqs = append(reqs, r)
	}
	return reqs, nil
}

// checker is the correctness gate: every answer the benchmark receives,
// from the network or from a re-issued in-process call, is compared with
// the expected estimate bit for bit.
type checker struct {
	attempted, failed, mismatched atomic.Int64
	mu                            sync.Mutex
	first                         string
}

// record counts one attempted request; err is a transport failure, a
// non-200 status or a mismatch (mismatch set).
func (c *checker) record(err error, mismatch bool) {
	c.attempted.Add(1)
	if err == nil {
		return
	}
	c.failed.Add(1)
	if mismatch {
		c.mismatched.Add(1)
	}
	c.mu.Lock()
	if c.first == "" {
		c.first = err.Error()
	}
	c.mu.Unlock()
}

// compare counts one direct layer call's results (one per item of r)
// against the expected bits.
func (c *checker) compare(r *request, res []core.EstimateResult) {
	for i := range res {
		if math.Float64bits(res[i].Estimate) != r.want[i] {
			c.record(fmt.Errorf("direct estimate mismatch for %q on %s: got %v, want bits %#x",
				r.texts[i], r.name, res[i].Estimate, r.want[i]), true)
			return
		}
	}
	c.record(nil, false)
}

// estimateReply is the slice of both response bodies the gate reads.
type estimateReply struct {
	Estimate float64 `json:"estimate"`
	Results  []struct {
		Estimate float64 `json:"estimate"`
		Error    string  `json:"error"`
	} `json:"results"`
}

// verify checks one response body against the request's expected bits.
// mismatch is true when the body parsed but an estimate differs.
func verify(r *request, status int, body []byte) (mismatch bool, err error) {
	if status != http.StatusOK {
		return false, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	var rep estimateReply
	if err := json.Unmarshal(body, &rep); err != nil {
		return false, fmt.Errorf("decode response: %w", err)
	}
	got := []float64{rep.Estimate}
	if len(r.want) > 1 || rep.Results != nil {
		if len(rep.Results) != len(r.want) {
			return false, fmt.Errorf("batch answered %d items, want %d", len(rep.Results), len(r.want))
		}
		got = got[:0]
		for i, it := range rep.Results {
			if it.Error != "" {
				return false, fmt.Errorf("item %d: %s", i, it.Error)
			}
			got = append(got, it.Estimate)
		}
	}
	for i, g := range got {
		if math.Float64bits(g) != r.want[i] {
			return true, fmt.Errorf("estimate mismatch for %q on %s: got %v (bits %#x), want bits %#x",
				r.texts[i], r.name, g, math.Float64bits(g), r.want[i])
		}
	}
	return false, nil
}

// roundTrip sends one request and reads the whole answer.
func roundTrip(cl *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := cl.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// newClient returns an HTTP client that keeps at most conns connections
// to each host.
func newClient(conns int) (*http.Client, *http.Transport) {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true}
	return &http.Client{Transport: tr}, tr
}

// loadHooks are optional callbacks into a load window.
type loadHooks struct {
	// sample runs on the client goroutine after each successful request:
	// the request's sequence number on that client, the request, and its
	// start and end.
	sample func(seq int64, r *request, t0, t1 time.Time)
	// start and end run on the coordinating goroutine as the timed window
	// opens and closes, to snapshot layer counters.
	start, end func()
}

// window is what one timed load window measured, per one-second
// sub-window.
type window struct {
	lat       []float64 // latency per request, ms, in sub-window order
	subEst    []int64   // estimates completed per sub-window
	subReqs   []int64
	subDur    []time.Duration
	subCPU    []time.Duration
	allocFrom allocStats
	allocTo   allocStats
	liveHeap  uint64 // after a forced GC, without the latency buffers
}

// driveLoad runs closed-loop clients over the request cycle: warmup
// untimed, then subs timed sub-windows of subLen each. It returns once
// every client stopped.
func driveLoad(sp spec, url string, reqs []request, chk *checker, warmup time.Duration, subs int, subLen time.Duration, hooks loadHooks) window {
	path := "/estimate"
	if sp.batch > 0 {
		path = "/estimate/batch"
	}
	cl, tr := newClient(sp.clients)
	defer tr.CloseIdleConnections()

	var phase atomic.Int64 // -1 warmup, 0..subs-1 timed, subs done
	phase.Store(-1)
	var stop atomic.Bool
	lat := make([][][]float64, sp.clients)
	est := make([][]int64, sp.clients)
	nreq := make([][]int64, sp.clients)
	var wg sync.WaitGroup
	for c := 0; c < sp.clients; c++ {
		lat[c] = make([][]float64, subs)
		est[c] = make([]int64, subs)
		nreq[c] = make([]int64, subs)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			k := c * len(reqs) / sp.clients
			for seq := int64(0); !stop.Load(); seq++ {
				r := &reqs[k%len(reqs)]
				k++
				t0 := time.Now()
				status, body, err := roundTrip(cl, url+path, r.body)
				t1 := time.Now()
				mismatch := false
				if err == nil {
					mismatch, err = verify(r, status, body)
				}
				chk.record(err, mismatch)
				if s := phase.Load(); s >= 0 && s < int64(subs) && err == nil {
					lat[c][s] = append(lat[c][s], float64(t1.Sub(t0))/float64(time.Millisecond))
					est[c][s] += int64(len(r.want))
					nreq[c][s]++
				}
				if hooks.sample != nil && err == nil {
					hooks.sample(seq, r, t0, t1)
				}
			}
		}(c)
	}

	time.Sleep(warmup)
	w := window{subEst: make([]int64, subs), subReqs: make([]int64, subs)}
	if hooks.start != nil {
		hooks.start()
	}
	w.allocFrom = readAlloc()
	t := time.Now()
	cpu := cpuTime()
	for s := 0; s < subs; s++ {
		phase.Store(int64(s))
		time.Sleep(time.Until(t.Add(subLen)))
		now, nowCPU := time.Now(), cpuTime()
		w.subDur = append(w.subDur, now.Sub(t))
		w.subCPU = append(w.subCPU, nowCPU-cpu)
		t, cpu = now, nowCPU
	}
	phase.Store(int64(subs))
	w.allocTo = readAlloc()
	if hooks.end != nil {
		hooks.end()
	}
	stop.Store(true)
	wg.Wait()
	for s := 0; s < subs; s++ {
		for c := range lat {
			w.lat = append(w.lat, lat[c][s]...)
			w.subEst[s] += est[c][s]
			w.subReqs[s] += nreq[c][s]
		}
	}
	// The latency buffers grow with throughput; they are the harness's,
	// not the system's, so the per-client ones are released and the bytes
	// of the merged one are taken out of the live heap.
	lat = nil
	buffers := uint64(cap(w.lat)) * 8
	// Two collections: the first moves sync.Pool caches to their victim
	// lists, the second frees them, so pooled scratch does not count.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.liveHeap = ms.HeapAlloc - min(buffers, ms.HeapAlloc)
	return w
}

func readAlloc() allocStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocStats{TotalAlloc: ms.TotalAlloc, NumGC: ms.NumGC}
}

// endToEnd is the user-visible summary of one window.
type endToEnd struct {
	p50, p90, p99, rate, cpuPerEst, heapMiB float64
	requests, estimates                     int64
	p90ok                                   bool
	blocks                                  int // 100-request latency blocks
	subRates                                []float64
}

// summarize reduces a window to its end-to-end figures, each a median
// over many small measurements so that a single disturbed second moves
// it little. The window's requests, in completion order by sub-window,
// are cut into consecutive blocks of 100; p50 and p90 are the medians of
// the blocks' nearest-rank quantiles (p90 is the highest percentile of a
// 100-request block with minBeyond samples beyond it). p99 is taken the
// same way over blocks of 1000. Throughput and CPU per estimate are
// medians over the one-second sub-windows.
func summarize(w window) endToEnd {
	var e endToEnd
	rates := make([]float64, 0, len(w.subEst))
	cpus := make([]float64, 0, len(w.subEst))
	for s := range w.subEst {
		e.requests += w.subReqs[s]
		e.estimates += w.subEst[s]
		rates = append(rates, float64(w.subEst[s])/w.subDur[s].Seconds())
		cpus = append(cpus, perEstimateCPU(0, w.subCPU[s], w.subEst[s]))
	}
	e.p50, e.blocks, _ = blockQuantile(w.lat, 10*minBeyond, 0.5)
	e.p90, _, e.p90ok = blockQuantile(w.lat, 10*minBeyond, 0.9)
	e.p99, _, _ = blockQuantile(w.lat, 100*minBeyond, 0.99)
	e.rate = median(rates)
	e.subRates = rates
	e.cpuPerEst = median(cpus)
	e.heapMiB = float64(w.liveHeap) / (1 << 20)
	return e
}

// blockQuantile cuts samples into consecutive blocks of n (a shorter
// tail is dropped) and returns the median over blocks of each block's
// nearest-rank q-quantile, with the block count. ok is false when there
// is no block or a block has fewer than minBeyond samples beyond the
// quantile; v is then 0.
func blockQuantile(samples []float64, n int, q float64) (v float64, blocks int, ok bool) {
	var vs []float64
	for i := 0; i+n <= len(samples); i += n {
		b := sortedCopy(samples[i : i+n])
		x, ok := tailQuantile(b, q)
		if !ok {
			return 0, 0, false
		}
		vs = append(vs, x)
	}
	if len(vs) == 0 {
		return 0, 0, false
	}
	return median(vs), len(vs), true
}
