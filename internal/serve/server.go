package serve

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"xsketch/internal/accuracy"
	"xsketch/internal/httpfront"
	"xsketch/internal/obs"
	core "xsketch/internal/xsketch"
)

// Config tunes the service's hardening knobs. Zero values select the
// defaults noted on each field.
type Config struct {
	// MaxConcurrent bounds the number of estimate requests (single and
	// batch combined) admitted at once; excess requests are shed with 429.
	// Default: 2 × GOMAXPROCS.
	MaxConcurrent int
	// RequestTimeout bounds one estimate request; expiry cancels the
	// estimation context and answers 504. Default: 10s.
	RequestTimeout time.Duration
	// MaxBodyBytes bounds a request body; larger bodies answer 413.
	// Default: 1 MiB.
	MaxBodyBytes int64
	// MaxBatchQueries bounds the query count of one batch request.
	// Default: 4096.
	MaxBatchQueries int
	// BatchWorkers is the worker count handed to
	// EstimateBatchTextContext. Default: GOMAXPROCS.
	BatchWorkers int
	// EnablePprof mounts net/http/pprof under /debug/pprof.
	EnablePprof bool
	// CatalogDir is the sketch-catalog directory backing hot reloads: a
	// POST /admin/reload (or a SIGHUP in cmd/xserve) without an explicit
	// path re-opens the named entry from here. Empty disables the
	// directory default; reloads then require a path in the request.
	CatalogDir string
	// Logger receives one structured JSON line per request; nil disables
	// logging.
	Logger *obs.Logger
	// Audit configures the accuracy auditor: sampled estimates are
	// journaled to a JSONL log and, for sketches with a live source
	// document, ground-truthed in the background (see internal/accuracy).
	// The Registry, Logger and Sketches fields are filled in by New. nil
	// disables auditing entirely; the estimate path then pays a single
	// nil check.
	Audit *accuracy.Config
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = httpfront.DefaultMaxBodyBytes
	}
	if c.MaxBatchQueries <= 0 {
		c.MaxBatchQueries = httpfront.DefaultMaxBatchQueries
	}
	return c
}

// A Sketch is one synopsis offered by the service.
type Sketch struct {
	// Name addresses the sketch in requests ({"sketch": "imdb"}).
	Name string
	// Source describes where the synopsis came from, for /sketches
	// listings and logs (e.g. "dataset:imdb scale=0.05 budget=16384").
	Source string
	// Sketch is the loaded synopsis. The server only estimates against it
	// — never mutates — so one sketch may even be shared across servers.
	Sketch *core.Sketch
}

// sketchState is one immutable generation of a served synopsis: the
// sketch and the size figures reported by /sketches and
// the per-sketch gauges. A hot swap publishes a brand-new state; nothing
// in an old state is ever mutated, so a request that loaded the pointer
// keeps a fully consistent synopsis until it finishes.
type sketchState struct {
	source    string
	sk        *core.Sketch
	sizeBytes int
	nodes     int
	edges     int
}

func newSketchState(source string, sk *core.Sketch) *sketchState {
	return &sketchState{
		source:    source,
		sk:        sk,
		sizeBytes: sk.SizeBytes(),
		nodes:     sk.Syn.NumNodes(),
		edges:     sk.Syn.NumEdges(),
	}
}

// entry is one served sketch name. The name set is fixed at New; what a
// name serves is the atomically swappable state (the same
// pointer-generation idiom as the estimator and plan caches): handlers
// load the pointer once per request, SwapSketch stores a new one, and
// in-flight estimates finish on the state they loaded — no request ever
// observes a half-loaded synopsis.
type entry struct {
	name  string
	state atomic.Pointer[sketchState]
	swaps atomic.Uint64
}

// Server is the xserve HTTP service: a fixed set of sketches, the
// observability registry, and the hardened handler chain. Create with New,
// expose via Handler, and flip SetDraining before shutting the listener
// down gracefully.
type Server struct {
	cfg      Config
	log      *obs.Logger
	reg      *obs.Registry
	entries  map[string]*entry
	names    []string // sorted
	sem      chan struct{}
	draining atomic.Bool
	start    time.Time
	mux      *http.ServeMux
	m        *metrics
	aud      *accuracy.Auditor

	// testHookEstimate, when set, runs inside an estimate handler after
	// admission and before estimation — test scaffolding for the drain and
	// shedding paths.
	testHookEstimate func()
	// testHookExplainItem, when set, can inject a per-item failure into the
	// batch explain loop — test scaffolding for error isolation.
	testHookExplainItem func(i int) error
}

// New builds a server over the given sketches. At least one sketch is
// required; names must be unique and non-empty.
func New(cfg Config, sketches []Sketch) (*Server, error) {
	if len(sketches) == 0 {
		return nil, fmt.Errorf("serve: no sketches to serve")
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		log:     cfg.Logger,
		reg:     obs.NewRegistry(),
		entries: make(map[string]*entry, len(sketches)),
		sem:     make(chan struct{}, cfg.MaxConcurrent),
		start:   time.Now(),
	}
	for _, sk := range sketches {
		if sk.Name == "" {
			return nil, fmt.Errorf("serve: sketch with empty name")
		}
		if sk.Sketch == nil {
			return nil, fmt.Errorf("serve: sketch %q is nil", sk.Name)
		}
		if _, dup := s.entries[sk.Name]; dup {
			return nil, fmt.Errorf("serve: duplicate sketch name %q", sk.Name)
		}
		e := &entry{name: sk.Name}
		e.state.Store(newSketchState(sk.Source, sk.Sketch))
		s.entries[sk.Name] = e
		s.names = append(s.names, sk.Name)
	}
	sort.Strings(s.names)
	s.m = newMetrics(s.reg, s)
	if cfg.Audit != nil {
		ac := *cfg.Audit
		ac.Registry = s.reg
		ac.Logger = cfg.Logger
		ac.Sketches = s.names
		aud, err := accuracy.New(ac)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		s.aud = aud
	}
	s.mux = http.NewServeMux()
	in := func(path string, h http.HandlerFunc) http.HandlerFunc {
		return httpfront.Instrument(s.m.requests, s.log, path, h)
	}
	s.mux.HandleFunc("POST /estimate", in("/estimate", s.handleEstimate))
	s.mux.HandleFunc("POST /estimate/batch", in("/estimate/batch", s.handleEstimateBatch))
	s.mux.HandleFunc("GET /sketches", in("/sketches", s.handleSketches))
	s.mux.HandleFunc("GET /healthz", in("/healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", in("/metrics", httpfront.Metrics(s.reg)))
	s.mux.HandleFunc("POST /admin/reload", in("/admin/reload", s.handleReload))
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// Handler returns the service's root handler, ready for an http.Server or
// an httptest.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// Names returns the served sketch names, sorted.
func (s *Server) Names() []string { return append([]string(nil), s.names...) }

// SetDraining marks the server as draining: /healthz answers 503 so load
// balancers stop routing here, while in-flight and already-accepted
// requests still complete. Call it right before http.Server.Shutdown.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Draining reports whether SetDraining(true) was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Auditor returns the accuracy auditor, or nil when auditing is disabled.
// Owners should Close it after draining the HTTP server so queued audit
// records are flushed to the log.
func (s *Server) Auditor() *accuracy.Auditor { return s.aud }

// lookup resolves a request's sketch name; an empty name selects the only
// sketch when exactly one is served.
func (s *Server) lookup(name string) (*entry, error) {
	if name == "" {
		if len(s.names) == 1 {
			return s.entries[s.names[0]], nil
		}
		return nil, fmt.Errorf("multiple sketches served, name one of %v", s.names)
	}
	e, ok := s.entries[name]
	if !ok {
		return nil, fmt.Errorf("unknown sketch %q (serving %v)", name, s.names)
	}
	return e, nil
}
