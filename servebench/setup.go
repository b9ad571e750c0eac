package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"time"

	"xsketch/internal/build"
	"xsketch/internal/catalog"
	"xsketch/internal/metrics"
	"xsketch/internal/router"
	"xsketch/internal/serve"
	"xsketch/internal/workload"
	"xsketch/internal/xmlgen"
	"xsketch/internal/xmltree"
	core "xsketch/internal/xsketch"
)

// spec describes one workload: the synopsis it serves, the queries it
// generates from the seed, and the traffic it drives.
type spec struct {
	name    string
	dataset string
	scale   float64
	budget  int
	kind    workload.Kind
	// pool is the size of the seed's generated workload; its distinct
	// queries are the accuracy set scored by avg_rel_error.
	pool int
	// hot, when positive, serves only the first hot distinct queries;
	// otherwise every distinct pool query is served.
	hot int
	// minDistinct is the fewest distinct served queries the workload
	// accepts (batch-wide must out-size the plan LRU).
	minDistinct int
	// clients is the closed-loop client (and connection) count.
	clients int
	// batch is the items per POST /estimate/batch; 0 sends single
	// POST /estimate calls.
	batch int
	// replicas above one puts the router in front.
	replicas int
	// swapEvery, when positive, runs a writer that re-decodes the catalog
	// and hot-swaps one replica's synopsis on this period.
	swapEvery time.Duration
	// sampleEvery is the traced run's sampling period, per client.
	sampleEvery int
}

// specs are the benchmark's workloads, in the order the repeat runner
// interleaves them.
var specs = []spec{
	{
		name:    "point-hot",
		dataset: "imdb", scale: 0.5, budget: 51200, kind: workload.KindP,
		pool: 2000, hot: 16, clients: 2, replicas: 1, sampleEvery: 16,
	},
	{
		name:    "batch-wide",
		dataset: "xmark", scale: 1.5, budget: 51200, kind: workload.KindPV,
		pool: 2000, minDistinct: 1024, clients: 1, batch: 64, replicas: 1, sampleEvery: 4,
	},
	{
		name:    "routed-swap",
		dataset: "imdb", scale: 0.5, budget: 51200, kind: workload.KindP,
		pool: 2000, hot: 16, clients: 2, replicas: 2, swapEvery: 250 * time.Millisecond, sampleEvery: 16,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// replica is one serving instance on a loopback listener.
type replica struct {
	srv *serve.Server
	ts  *httptest.Server
	// sketches maps each served name to the synopsis generation it
	// currently serves; only the swap writer changes it.
	sketches map[string]*core.Sketch
}

// system is one set-up instance of a workload: the catalog bytes, the
// replicas and, when routed, the router in front of them.
type system struct {
	catBytes []byte
	replicas []*replica
	rt       *router.Router
	rts      *httptest.Server
	front    string         // base URL the clients send to
	names    []string       // sketch names the clients address
	owner    map[string]int // name -> replica index (ring owner)
}

func (s *system) close() {
	if s.rts != nil {
		s.rts.Close()
	}
	for _, r := range s.replicas {
		r.ts.Close()
	}
}

// setupTimes records one set-up's phases.
type setupTimes struct {
	total, generate, xbuild time.Duration
	decodes                 []time.Duration
	steps                   int
	estimatorHitRatio       float64
}

// decodeSketch turns catalog bytes into a fresh synopsis.
func decodeSketch(b []byte) (*core.Sketch, time.Duration, error) {
	t0 := time.Now()
	sk, _, err := catalog.Decode(bytes.NewReader(b))
	return sk, time.Since(t0), err
}

// setUp generates the dataset, runs XBUILD, encodes and decodes the
// catalog entry and starts the servers: everything up to the first
// request, which is what setup_s times. The returned document feeds query
// generation and truth; the caller drops it afterwards.
func setUp(sp spec) (*system, setupTimes, *xmltree.Document, error) {
	var st setupTimes
	start := time.Now()
	doc := xmlgen.Generate(sp.dataset, xmlgen.Config{Seed: 1, Scale: sp.scale})
	st.generate = time.Since(start)

	t0 := time.Now()
	b := build.NewBuilder(doc, build.DefaultOptions(sp.budget))
	b.Run()
	st.xbuild = time.Since(t0)
	st.steps = len(b.Steps())
	st.estimatorHitRatio = b.Sketch().EstimatorStats().HitRate()

	catBytes, err := catalog.EncodeBytes(b.Sketch())
	if err != nil {
		return nil, st, nil, fmt.Errorf("encode catalog: %w", err)
	}

	sys := &system{catBytes: catBytes, owner: make(map[string]int)}
	// Listeners come first: the router's ring is keyed by replica URLs,
	// and the served names are chosen so each replica owns one of them.
	for i := 0; i < sp.replicas; i++ {
		sys.replicas = append(sys.replicas, &replica{ts: httptest.NewUnstartedServer(nil), sketches: make(map[string]*core.Sketch)})
	}
	urls := make([]string, len(sys.replicas))
	for i, r := range sys.replicas {
		urls[i] = "http://" + r.ts.Listener.Addr().String()
	}
	if sp.replicas == 1 {
		sys.names = []string{sp.dataset}
		sys.owner[sp.dataset] = 0
	} else {
		sys.names, sys.owner, err = ownedNames(sp.dataset, urls)
		if err != nil {
			sys.close()
			return nil, st, nil, err
		}
	}
	for _, r := range sys.replicas {
		var served []serve.Sketch
		for _, name := range sys.names {
			sk, d, err := decodeSketch(catBytes)
			st.decodes = append(st.decodes, d)
			if err != nil {
				sys.close()
				return nil, st, nil, fmt.Errorf("decode catalog: %w", err)
			}
			r.sketches[name] = sk
			served = append(served, serve.Sketch{Name: name, Source: "catalog", Sketch: sk})
		}
		if r.srv, err = serve.New(serve.Config{}, served); err != nil {
			sys.close()
			return nil, st, nil, err
		}
		r.ts.Config.Handler = r.srv.Handler()
		r.ts.Start()
	}
	sys.front = sys.replicas[0].ts.URL
	if sp.replicas > 1 {
		if sys.rt, err = router.New(router.Config{}, urls); err != nil {
			sys.close()
			return nil, st, nil, err
		}
		sys.rts = httptest.NewServer(sys.rt.Handler())
		sys.front = sys.rts.URL
	}
	if err := ready(sys.front); err != nil {
		sys.close()
		return nil, st, nil, err
	}
	st.total = time.Since(start)
	return sys, st, doc, nil
}

// ownedNames picks one sketch name per replica such that the ring sends
// each name to a different owner. The router shards single estimates by
// sketch name, so one name would put all traffic on one replica.
func ownedNames(base string, urls []string) ([]string, map[string]int, error) {
	ring := router.NewRing(urls, 0)
	index := make(map[string]int, len(urls))
	for i, u := range urls {
		index[u] = i
	}
	names := make([]string, len(urls))
	owner := make(map[string]int, len(urls))
	found := 0
	for k := 0; k < 1000 && found < len(urls); k++ {
		name := fmt.Sprintf("%s-%d", base, k)
		i := index[ring.Owner(name)]
		if names[i] == "" {
			names[i] = name
			owner[name] = i
			found++
		}
	}
	if found < len(urls) {
		return nil, nil, fmt.Errorf("no sketch names found that spread over %d replicas", len(urls))
	}
	return names, owner, nil
}

// ready checks that the front end's /healthz answers 200.
func ready(base string) error {
	cl, tr := newClient(1)
	defer tr.CloseIdleConnections()
	resp, err := cl.Get(base + "/healthz")
	if err != nil {
		return fmt.Errorf("health check: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("health check answered %d", resp.StatusCode)
	}
	return nil
}

// querySet is what the seed generates for one workload.
type querySet struct {
	texts    []string  // served queries, distinct canonical texts
	expected []float64 // EstimateQuery on the catalog's synopsis, per text
	// avgRelError is the paper's metric over the pool's distinct queries.
	avgRelError float64
	accuracyN   int
}

// makeQueries generates the seed's workload over the document, keeps its
// distinct queries, and computes each served query's expected estimate on
// a synopsis decoded from the same catalog bytes the servers decoded.
func makeQueries(sp spec, seed int64, doc *xmltree.Document, oracle *core.Sketch) (querySet, error) {
	cfg := workload.DefaultConfig(sp.kind)
	cfg.NumQueries = sp.pool
	cfg.Seed = seed
	w := workload.Generate(doc, cfg)
	var qs querySet
	seen := make(map[string]bool, len(w.Queries))
	var results []metrics.Result
	for _, q := range w.Queries {
		text := q.Twig.String()
		if seen[text] {
			continue
		}
		seen[text] = true
		est := oracle.EstimateQuery(q.Twig)
		if math.IsNaN(est) || math.IsInf(est, 0) {
			return qs, fmt.Errorf("query %q: non-finite estimate %v", text, est)
		}
		results = append(results, metrics.Result{Truth: q.Truth, Estimate: est})
		if sp.hot <= 0 || len(qs.texts) < sp.hot {
			qs.texts = append(qs.texts, text)
			qs.expected = append(qs.expected, est)
		}
	}
	want := sp.minDistinct
	if sp.hot > 0 {
		want = sp.hot
	}
	if len(qs.texts) < want {
		return qs, fmt.Errorf("seed %d gave %d distinct queries, want at least %d", seed, len(qs.texts), want)
	}
	qs.avgRelError = metrics.Evaluate(results, 0).AvgError
	qs.accuracyN = len(results)
	return qs, nil
}
