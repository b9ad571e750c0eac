// Command xserve is the networked estimation service: it loads (or
// builds) one or more Twig XSKETCH synopses at startup and serves twig
// selectivity estimates over HTTP, with Prometheus metrics, structured
// JSON logs and pprof built in. See SERVING.md for the full endpoint and
// metrics reference.
//
// Usage:
//
//	xserve -listen :8080 -sketch imdb
//	xserve -sketch imdb=dataset:imdb,scale=0.05,budget=16384 \
//	       -sketch docs=xml:doc.xml,budget=8192 -sketch snap=synopsis:imdb.xsb
//	xserve -catalog ./sketches
//
// Each repeatable -sketch flag is name=source[,key=value...]: the source
// is dataset:<xmark|imdb|sprot|parts>, xml:<file>, or synopsis:<file> (a
// standalone binary sketch written by `xbuild -o`, loaded with no
// document at all). The options scale, seed and budget tune the XBUILD
// run for dataset: and xml: sources; a synopsis: source takes none. A
// bare name is shorthand for a same-named dataset with default options.
// Paths may contain commas; an unquoted comma splits options only when
// the next token looks like key=value with a known key.
//
// -catalog DIR serves every *.xsb entry in DIR (each under its file
// name), again with no documents, and enables hot reloads: POST
// /admin/reload re-opens an entry and atomically swaps it in, as does
// SIGHUP for every catalog-backed sketch.
//
// Endpoints: POST /estimate, POST /estimate/batch, GET /sketches,
// POST /admin/reload, GET /healthz, GET /metrics, /debug/pprof (disable
// with -pprof=false). SIGINT/SIGTERM drains in-flight requests before
// exiting; SIGHUP hot-reloads from the catalog.
//
// With -router the binary instead becomes a stateless consistent-hash
// router in front of replica processes (see SCALING.md):
//
//	xserve -router -backend http://127.0.0.1:8081 -backend http://127.0.0.1:8082
//
// Router mode loads no sketches — -sketch and -catalog are rejected —
// and adds -probe-interval, -probe-timeout, -attempt-timeout and
// -retry-backoff. The router proxies /estimate and /estimate/batch
// shard-wise with one retry against the next ring candidate, probes
// backend /healthz endpoints in the background, and serves its own
// /healthz and xrouter_* /metrics. It drains on SIGINT/SIGTERM like a
// replica and logs and ignores SIGHUP.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"xsketch/internal/accuracy"
	"xsketch/internal/build"
	"xsketch/internal/catalog"
	"xsketch/internal/cli"
	"xsketch/internal/httpfront"
	"xsketch/internal/obs"
	"xsketch/internal/router"
	"xsketch/internal/serve"
	core "xsketch/internal/xsketch"
)

// backendFlags collects repeated -backend values.
type backendFlags []string

func (f *backendFlags) String() string { return strings.Join(*f, ",") }

func (f *backendFlags) Set(v string) error {
	if v == "" {
		return fmt.Errorf("empty backend URL")
	}
	*f = append(*f, v)
	return nil
}

// validateRouterFlags checks the flag combinations that select router
// mode: backends are required, and sketch-loading flags are meaningless
// there (the router holds no sketches) so they are rejected loudly
// rather than silently ignored.
func validateRouterFlags(routerOn bool, backends []string, sketchFlags int, catalogDir string) error {
	if !routerOn {
		if len(backends) > 0 {
			return fmt.Errorf("-backend requires -router")
		}
		return nil
	}
	if len(backends) == 0 {
		return fmt.Errorf("-router requires at least one -backend URL")
	}
	if sketchFlags > 0 {
		return fmt.Errorf("-sketch cannot be combined with -router: the router loads no sketches")
	}
	if catalogDir != "" {
		return fmt.Errorf("-catalog cannot be combined with -router: the router loads no sketches")
	}
	return nil
}

// auditSatellites are the -audit-* flags that tune the accuracy auditor;
// each is meaningless without -audit-log, so setting one while auditing
// is off fails loudly rather than being silently ignored.
var auditSatellites = []string{
	"audit-rate", "audit-queue", "audit-truth-interval",
	"audit-window", "audit-drift-threshold",
}

// validateAuditFlags checks the -audit-* flag combinations: auditing is a
// replica-mode feature (the router serves no estimates of its own), every
// satellite flag requires -audit-log, and the sample rate must be a
// probability.
func validateAuditFlags(routerOn bool, set map[string]bool, logPath string, rate float64) error {
	if routerOn {
		if set["audit-log"] {
			return fmt.Errorf("-audit-log cannot be combined with -router: the router serves no estimates to audit")
		}
		for _, name := range auditSatellites {
			if set[name] {
				return fmt.Errorf("-%s cannot be combined with -router: the router serves no estimates to audit", name)
			}
		}
		return nil
	}
	if logPath == "" {
		for _, name := range auditSatellites {
			if set[name] {
				return fmt.Errorf("-%s requires -audit-log", name)
			}
		}
		return nil
	}
	if !(rate >= 0 && rate <= 1) {
		return fmt.Errorf("-audit-rate must be in [0, 1], got %g", rate)
	}
	return nil
}

// sketchSpec is one parsed -sketch flag.
type sketchSpec struct {
	name       string
	dataset    string // dataset:<name> source
	xmlPath    string // xml:<path> source
	standalone string // synopsis:<path> source (binary catalog file, no document)
	scale      float64
	seed       int64
	budget     int
}

// sketchFlags collects repeated -sketch values.
type sketchFlags []sketchSpec

func (f *sketchFlags) String() string {
	names := make([]string, len(*f))
	for i, s := range *f {
		names[i] = s.name
	}
	return strings.Join(names, ",")
}

func (f *sketchFlags) Set(v string) error {
	spec, err := parseSketchSpec(v)
	if err != nil {
		return err
	}
	*f = append(*f, spec)
	return nil
}

// specOptionKeys are the option names the spec grammar knows. A comma
// starts a new option only when the token after it is one of these keys
// followed by '='; any other comma belongs to the preceding value, so
// xml: and synopsis: paths containing commas parse without quoting.
var specOptionKeys = map[string]bool{
	"scale":  true,
	"seed":   true,
	"budget": true,
}

// splitSpec tokenizes source[,key=value...] comma-safely: tokens that do
// not look like a known option are re-joined onto the previous value.
func splitSpec(rest string) []string {
	raw := strings.Split(rest, ",")
	parts := raw[:1]
	for _, tok := range raw[1:] {
		k, _, ok := strings.Cut(tok, "=")
		if ok && specOptionKeys[k] {
			parts = append(parts, tok)
		} else {
			parts[len(parts)-1] += "," + tok
		}
	}
	return parts
}

// parseSketchSpec parses name=source[,key=value...]; a bare name is
// shorthand for name=dataset:name.
func parseSketchSpec(v string) (sketchSpec, error) {
	spec := sketchSpec{scale: 0.05, seed: 1, budget: 16 * 1024}
	name, rest, ok := strings.Cut(v, "=")
	if name == "" {
		return spec, fmt.Errorf("sketch spec %q: empty name", v)
	}
	spec.name = name
	if !ok {
		spec.dataset = name
		return spec, nil
	}
	parts := splitSpec(rest)
	switch {
	case strings.HasPrefix(parts[0], "dataset:"):
		spec.dataset = strings.TrimPrefix(parts[0], "dataset:")
		if strings.Contains(spec.dataset, ",") {
			// Dataset names never contain commas, so one here means an
			// option token that isn't in the grammar.
			return spec, fmt.Errorf("sketch spec %q: %q is not a dataset name — unknown option after the comma?", v, spec.dataset)
		}
	case strings.HasPrefix(parts[0], "xml:"):
		spec.xmlPath = strings.TrimPrefix(parts[0], "xml:")
	case strings.HasPrefix(parts[0], "synopsis:"):
		spec.standalone = strings.TrimPrefix(parts[0], "synopsis:")
		if spec.standalone == "" {
			return spec, fmt.Errorf("sketch spec %q: empty synopsis path", v)
		}
	default:
		return spec, fmt.Errorf("sketch spec %q: source must be dataset:<name>, xml:<path> or synopsis:<path>", v)
	}
	for _, p := range parts[1:] {
		k, val, ok := strings.Cut(p, "=")
		if !ok {
			return spec, fmt.Errorf("sketch spec %q: option %q is not key=value", v, p)
		}
		var err error
		switch k {
		case "scale":
			spec.scale, err = strconv.ParseFloat(val, 64)
		case "seed":
			spec.seed, err = strconv.ParseInt(val, 10, 64)
		case "budget":
			spec.budget, err = strconv.Atoi(val)
		default:
			return spec, fmt.Errorf("sketch spec %q: unknown option %q", v, k)
		}
		if err != nil {
			return spec, fmt.Errorf("sketch spec %q: option %q: %v", v, p, err)
		}
	}
	if spec.standalone != "" && len(parts) > 1 {
		return spec, fmt.Errorf("sketch spec %q: a synopsis:<path> source takes no options", v)
	}
	if spec.scale <= 0 {
		return spec, fmt.Errorf("sketch spec %q: scale must be positive, got %g", v, spec.scale)
	}
	if spec.budget <= 0 {
		return spec, fmt.Errorf("sketch spec %q: budget must be positive, got %d", v, spec.budget)
	}
	if spec.seed < 0 {
		return spec, fmt.Errorf("sketch spec %q: seed must be non-negative, got %d", v, spec.seed)
	}
	return spec, nil
}

// loadSketch materializes one spec: a standalone binary synopsis loads
// directly (no document); otherwise the document is generated or parsed
// and the synopsis is built with XBUILD.
func loadSketch(spec sketchSpec, logger *obs.Logger) (serve.Sketch, error) {
	var (
		sk     *core.Sketch
		source string
	)
	if spec.standalone != "" {
		loaded, info, err := catalog.Open(spec.standalone)
		if err != nil {
			return serve.Sketch{}, fmt.Errorf("sketch %s: %v", spec.name, err)
		}
		sk = loaded
		source = fmt.Sprintf("synopsis:%s (standalone, %d elements summarized)", spec.standalone, info.Elements)
	} else {
		doc, err := cli.LoadDoc(spec.xmlPath, spec.dataset, spec.scale, spec.seed)
		if err != nil {
			return serve.Sketch{}, fmt.Errorf("sketch %s: %v", spec.name, err)
		}
		opts := build.DefaultOptions(spec.budget)
		opts.Seed = spec.seed
		sk = build.XBuild(doc, opts)
		if spec.dataset != "" {
			source = fmt.Sprintf("dataset:%s scale=%g budget=%d seed=%d", spec.dataset, spec.scale, spec.budget, spec.seed)
		} else {
			source = fmt.Sprintf("xml:%s budget=%d seed=%d", spec.xmlPath, spec.budget, spec.seed)
		}
	}
	logger.Info("sketch loaded",
		"sketch", spec.name,
		"source", source,
		"nodes", sk.Syn.NumNodes(),
		"edges", sk.Syn.NumEdges(),
		"size_bytes", sk.SizeBytes(),
	)
	return serve.Sketch{Name: spec.name, Source: source, Sketch: sk}, nil
}

// loadCatalog opens every entry of a catalog directory, failing on
// corrupt entries (a serving replica should not silently come up with a
// partial catalog).
func loadCatalog(dir string, logger *obs.Logger) ([]serve.Sketch, error) {
	infos, err := catalog.Scan(dir)
	if err != nil {
		return nil, err
	}
	if len(infos) == 0 {
		return nil, fmt.Errorf("catalog %s holds no %s entries", dir, catalog.Ext)
	}
	out := make([]serve.Sketch, 0, len(infos))
	for _, info := range infos {
		if info.Err != nil {
			return nil, fmt.Errorf("catalog entry %s: %v", info.Path, info.Err)
		}
		sk, _, err := catalog.Open(info.Path)
		if err != nil {
			return nil, fmt.Errorf("catalog entry %s: %v", info.Path, err)
		}
		logger.Info("sketch loaded",
			"sketch", info.Name,
			"source", "catalog:"+info.Path,
			"nodes", sk.Syn.NumNodes(),
			"edges", sk.Syn.NumEdges(),
			"size_bytes", sk.SizeBytes(),
		)
		out = append(out, serve.Sketch{Name: info.Name, Source: "catalog:" + info.Path, Sketch: sk})
	}
	return out, nil
}

func main() {
	var sketches sketchFlags
	var backends backendFlags
	var (
		routerMode     = flag.Bool("router", false, "run as a consistent-hash router over -backend replicas instead of serving sketches")
		probeInterval  = flag.Duration("probe-interval", time.Second, "router: backend health-probe period")
		probeTimeout   = flag.Duration("probe-timeout", 2*time.Second, "router: per-probe timeout")
		attemptTimeout = flag.Duration("attempt-timeout", 15*time.Second, "router: per-proxy-attempt timeout")
		retryBackoff   = flag.Duration("retry-backoff", 25*time.Millisecond, "router: pause before retrying on the next ring candidate")
	)
	var (
		listen        = flag.String("listen", ":8080", "address to serve on")
		catalogDir    = flag.String("catalog", "", "sketch catalog directory: serve every *.xsb entry and enable /admin/reload + SIGHUP hot swaps")
		timeout       = flag.Duration("timeout", 10*time.Second, "per-request estimation timeout")
		maxConcurrent = flag.Int("max-concurrent", 0, "estimate requests admitted at once before shedding with 429 (0 = 2*GOMAXPROCS)")
		maxBody       = flag.Int64("max-body", httpfront.DefaultMaxBodyBytes, "request body size limit in bytes")
		maxBatch      = flag.Int("max-batch", httpfront.DefaultMaxBatchQueries, "max queries per batch request")
		workers       = flag.Int("workers", 0, "batch estimation workers (0 = GOMAXPROCS)")
		pprofOn       = flag.Bool("pprof", true, "mount /debug/pprof")
		logMode       = flag.String("log", "json", "request logging: json (stderr) or off")
		drainTimeout  = flag.Duration("drain-timeout", 15*time.Second, "graceful-shutdown drain limit")
	)
	var (
		auditLog       = flag.String("audit-log", "", "enable accuracy auditing: append sampled estimates to this JSONL journal (replayable with xaudit)")
		auditRate      = flag.Float64("audit-rate", 0.01, "fraction of estimates sampled into the audit (deterministic per trace ID, 0..1)")
		auditQueue     = flag.Int("audit-queue", 0, "audit journal queue depth before sampled records drop (0 = default)")
		auditTruthPace = flag.Duration("audit-truth-interval", 0, "minimum pause between ground-truth evaluations (0 = default pacing, negative = unpaced)")
		auditWindow    = flag.Int("audit-window", 0, "q-error sliding-window size per sketch (0 = default)")
		auditDrift     = flag.Float64("audit-drift-threshold", 0, "windowed mean q-error above which drift fires (0 disables drift detection)")
	)
	flag.Var(&sketches, "sketch", "sketch to serve: name=dataset:<name>|xml:<path>|synopsis:<file>[,scale=F][,seed=N][,budget=N] (repeatable; bare NAME = dataset shorthand)")
	flag.Var(&backends, "backend", "router: backend replica base URL (repeatable, requires -router)")
	flag.Parse()

	var logger *obs.Logger
	switch *logMode {
	case "json":
		logger = obs.NewLogger(os.Stderr, "component", "xserve")
	case "off":
	default:
		fmt.Fprintf(os.Stderr, "-log must be json or off, got %q\n", *logMode)
		os.Exit(2)
	}

	if err := validateRouterFlags(*routerMode, backends, len(sketches), *catalogDir); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	setFlags := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })
	if err := validateAuditFlags(*routerMode, setFlags, *auditLog, *auditRate); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *routerMode {
		os.Exit(runRouter(router.Config{
			AttemptTimeout:  *attemptTimeout,
			RetryBackoff:    *retryBackoff,
			ProbeInterval:   *probeInterval,
			ProbeTimeout:    *probeTimeout,
			MaxBodyBytes:    *maxBody,
			MaxBatchQueries: *maxBatch,
			Logger:          logger,
		}, backends, *listen, *drainTimeout, logger))
	}

	if len(sketches) == 0 && *catalogDir == "" {
		fmt.Fprintln(os.Stderr, "at least one -sketch (or a -catalog directory) is required, e.g. -sketch imdb")
		os.Exit(2)
	}
	var served []serve.Sketch
	if *catalogDir != "" {
		fromCatalog, err := loadCatalog(*catalogDir, logger)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		served = fromCatalog
	}
	for _, spec := range sketches {
		sk, err := loadSketch(spec, logger)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		served = append(served, sk)
	}

	var auditFile *os.File
	var auditCfg *accuracy.Config
	if *auditLog != "" {
		f, err := os.OpenFile(*auditLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "opening -audit-log:", err)
			os.Exit(1)
		}
		auditFile = f
		auditCfg = &accuracy.Config{
			SampleRate:     *auditRate,
			Out:            auditFile,
			QueueSize:      *auditQueue,
			TruthInterval:  *auditTruthPace,
			WindowSize:     *auditWindow,
			DriftThreshold: *auditDrift,
		}
		logger.Info("accuracy auditing enabled",
			"log", *auditLog, "rate", *auditRate, "drift_threshold", *auditDrift)
	}

	s, err := serve.New(serve.Config{
		MaxConcurrent:   *maxConcurrent,
		RequestTimeout:  *timeout,
		MaxBodyBytes:    *maxBody,
		MaxBatchQueries: *maxBatch,
		BatchWorkers:    *workers,
		EnablePprof:     *pprofOn,
		CatalogDir:      *catalogDir,
		Logger:          logger,
		Audit:           auditCfg,
	}, served)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	logger.Info("listening", "addr", *listen, "sketches", s.Names())
	fmt.Fprintf(os.Stderr, "xserve listening on %s, serving %v\n", *listen, s.Names())
	// Hot-reload every served name present in the catalog on SIGHUP; names
	// without a catalog entry (or with a corrupt one) keep serving their
	// current synopsis.
	reload := func() {
		if *catalogDir == "" {
			logger.Info("SIGHUP ignored", "reason", "no -catalog directory")
			return
		}
		for _, name := range s.Names() {
			if _, err := s.ReloadFromCatalog(name, ""); err != nil {
				logger.Error("reload failed", "sketch", name, "error", err.Error())
			}
		}
	}
	// The auditor closes after the HTTP drain so every admitted request's
	// sample reaches the journal before the file does.
	closeAudit := func() error {
		if aud := s.Auditor(); aud != nil {
			aud.Close()
			if err := auditFile.Close(); err != nil {
				return fmt.Errorf("closing -audit-log: %w", err)
			}
		}
		return nil
	}
	os.Exit(serveAndDrain(s, *listen, *drainTimeout, logger, reload, closeAudit))
}

// tier is what serveAndDrain needs from a replica or a router.
type tier interface {
	Handler() http.Handler
	SetDraining(bool)
}

// serveAndDrain is the one listen/serve/drain routine of both modes. It
// serves t on listen until SIGINT/SIGTERM, running onHUP on every
// SIGHUP, so a SIGHUP never ends the process. Then it drains gracefully:
// /healthz flips to 503 with draining:true first, so load balancers stop
// sending new work, and in-flight requests finish within drainTimeout.
// afterDrain (when non-nil) runs once the HTTP server is down. The result
// is the process exit code.
func serveAndDrain(t tier, listen string, drainTimeout time.Duration, logger *obs.Logger, onHUP func(), afterDrain func() error) int {
	httpSrv := &http.Server{
		Addr:              listen,
		Handler:           t.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()

serveLoop:
	for {
		select {
		case err := <-errc:
			fmt.Fprintln(os.Stderr, err)
			return 1
		case <-hup:
			onHUP()
		case <-ctx.Done():
			break serveLoop
		}
	}
	t.SetDraining(true)
	logger.Info("draining", "timeout", drainTimeout.String())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "shutdown:", err)
		return 1
	}
	if afterDrain != nil {
		if err := afterDrain(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	logger.Info("stopped")
	return 0
}

// runRouter is router mode: build the ring, settle initial backend states
// with one synchronous probe round, then serve and drain like a replica.
// Returns the process exit code.
func runRouter(cfg router.Config, backends []string, listen string, drainTimeout time.Duration, logger *obs.Logger) int {
	rt, err := router.New(cfg, backends)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	// One synchronous probe round before taking traffic, so a dead
	// backend is already routed around at the first request.
	rt.ProbeOnce(context.Background())
	stopProbing := rt.StartProbing()
	defer stopProbing()

	logger.Info("router listening", "addr", listen, "backends", strings.Join(rt.Backends(), ","))
	fmt.Fprintf(os.Stderr, "xserve router listening on %s, backends %v\n", listen, rt.Backends())
	// A fleet-wide SIGHUP (say, pkill -HUP xserve to reload the replicas)
	// must not end the router: it holds no synopsis to reload.
	ignoreHUP := func() { logger.Info("SIGHUP ignored", "reason", "router mode has no synopses to reload") }
	return serveAndDrain(rt, listen, drainTimeout, logger, ignoreHUP, nil)
}
