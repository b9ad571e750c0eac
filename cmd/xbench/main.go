// Command xbench runs the paper's experiments at a configurable scale and
// prints the corresponding tables and figures as text.
//
// Usage:
//
//	xbench -exp table1|table2|fig9a|fig9b|fig9c|negative|singlepath|ablations|all \
//	       [-scale 0.05] [-queries 120] [-seed 1] [-paper]
//
// -paper selects the full-scale configuration (Scale 1, 1000-query
// workloads); expect several minutes per figure.
//
// With -load URL, xbench becomes an open-loop load generator against a
// running xserve (or router) instead of running paper experiments:
//
//	xbench -load http://127.0.0.1:8080 -rate 500 -load-duration 30s \
//	       -load-sketch imdb -load-query "t0 in movie, t1 in t0/actor" \
//	       [-load-out result.json]
//
// Requests arrive at the fixed target rate regardless of response times
// (open-loop, so tail latency includes queueing delay), and the run
// reports achieved throughput plus exact p50/p95/p99 latencies — as
// text, and as JSON when -load-out is given. See SCALING.md for worked
// interpretation.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"xsketch/internal/experiments"
	"xsketch/internal/loadgen"
)

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string { return fmt.Sprint([]string(*m)) }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func main() {
	var loadQueries multiFlag
	flag.Var(&loadQueries, "load-query", "twig query for -load mode (repeatable; cycled round-robin)")
	var (
		loadURL      = flag.String("load", "", "run as an open-loop load generator against this base URL instead of running experiments")
		loadRate     = flag.Float64("rate", 100, "arrival rate in requests/second for -load mode")
		loadDuration = flag.Duration("load-duration", 10*time.Second, "how long to generate load in -load mode")
		loadSketch   = flag.String("load-sketch", "", "sketch name for -load mode (empty = server's single-sketch default)")
		loadTimeout  = flag.Duration("load-timeout", 10*time.Second, "per-request timeout in -load mode")
		loadOut      = flag.String("load-out", "", "write the -load result as JSON to this file")
	)
	var (
		exp     = flag.String("exp", "all", "experiment: table1, table2, fig9a, fig9b, fig9c, negative, singlepath, threeway, ablations, all")
		scale   = flag.Float64("scale", 0.05, "dataset scale factor (1 = paper-sized)")
		queries = flag.Int("queries", 120, "workload size")
		seed    = flag.Int64("seed", 1, "random seed")
		paper   = flag.Bool("paper", false, "use the paper-scale configuration (slow)")
		steps   = flag.Int("steps", 300, "max XBUILD refinement steps")
		workers = flag.Int("workers", 0, "estimation workers for workload scoring (0 = GOMAXPROCS)")
	)
	flag.Parse()

	if *loadURL != "" {
		os.Exit(runLoad(*loadURL, *loadSketch, loadQueries, *loadRate, *loadDuration, *loadTimeout, *loadOut))
	}

	opts := experiments.DefaultOptions()
	opts.Scale = *scale
	opts.WorkloadSize = *queries
	opts.Seed = *seed
	opts.BuildMaxSteps = *steps
	if *paper {
		opts = experiments.PaperOptions()
		opts.Seed = *seed
	}
	opts.Workers = *workers

	run := func(name string, fn func()) {
		start := time.Now()
		fn()
		fmt.Printf("[%s took %s]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	w := os.Stdout
	any := false
	want := func(name string) bool {
		if *exp == "all" || *exp == name {
			any = true
			return true
		}
		return false
	}
	if want("table1") {
		run("table1", func() { experiments.FormatTable1(w, experiments.Table1(opts)) })
	}
	if want("table2") {
		run("table2", func() { experiments.FormatTable2(w, experiments.Table2(opts)) })
	}
	if want("fig9a") {
		run("fig9a", func() {
			experiments.FormatSeries(w, "Figure 9(a). Branching Predicates: IMDB and XMark", experiments.Figure9a(opts))
		})
	}
	if want("fig9b") {
		run("fig9b", func() {
			experiments.FormatSeries(w, "Figure 9(b). Branching and Value Predicates: IMDB and XMark", experiments.Figure9b(opts))
		})
	}
	if want("fig9c") {
		run("fig9c", func() { experiments.FormatRatios(w, experiments.Figure9c(opts)) })
	}
	if want("negative") {
		run("negative", func() { experiments.FormatNegative(w, experiments.NegativeWorkload(opts)) })
	}
	if want("singlepath") {
		run("singlepath", func() { experiments.FormatSinglePath(w, experiments.SinglePathComparison(opts)) })
	}
	if want("threeway") {
		run("threeway", func() { experiments.FormatThreeWay(w, experiments.ThreeWay(opts)) })
	}
	if want("ablations") {
		run("ablations", func() {
			experiments.FormatAblation(w, "Ablation: refinement selection policy", experiments.AblationRefinementPolicy(opts))
			experiments.FormatAblation(w, "Ablation: backward counts in edge-expand", experiments.AblationBackwardCounts(opts))
			experiments.FormatAblation(w, "Ablation: uniform histogram bucket budget (no structural refinement)", experiments.AblationBucketBudget(opts))
			experiments.FormatAblation(w, "Ablation: extended value histograms H^v (value-expand)", experiments.AblationValueExpand(opts))
			experiments.FormatAblation(w, "Ablation: value summary method (equi-depth vs wavelet)", experiments.AblationValueSummary(opts))
			experiments.FormatAblation(w, "Ablation: XBUILD scoring truths (exact vs reference summary)", experiments.AblationReferenceScoring(opts))
			experiments.FormatAblation(w, "Ablation: stored per-edge counts vs stability bits", experiments.AblationEdgeCounts(opts))
		})
	}
	if !any {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
}

// runLoad executes one open-loop load-generator run and reports it,
// returning the process exit code. SIGINT stops the schedule early and
// still reports what completed.
func runLoad(url, sketch string, queries []string, rate float64, duration, timeout time.Duration, outPath string) int {
	if len(queries) == 0 {
		// A sensible default twig so a bare `-load URL` run works against
		// any of the generated datasets' common shape.
		queries = []string{"t0 in movie, t1 in t0/actor"}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "loadgen: %s at %.0f req/s for %s (%d distinct queries)\n",
		url, rate, duration, len(queries))
	res, err := loadgen.Run(ctx, loadgen.Config{
		TargetURL: url,
		Sketch:    sketch,
		Queries:   queries,
		Rate:      rate,
		Duration:  duration,
		Timeout:   timeout,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		return 1
	}
	fmt.Printf("sent %d  completed %d  errors %d  achieved %.1f req/s\n",
		res.Sent, res.Completed, res.Errors, res.AchievedRPS)
	fmt.Printf("latency p50 %.6fs  p95 %.6fs  p99 %.6fs  mean %.6fs  max %.6fs\n",
		res.P50Seconds, res.P95Seconds, res.P99Seconds, res.MeanSeconds, res.MaxSeconds)
	codes := make([]string, 0, len(res.StatusCounts))
	for code := range res.StatusCounts {
		codes = append(codes, code)
	}
	sort.Strings(codes)
	for _, code := range codes {
		fmt.Printf("status %s: %d\n", code, res.StatusCounts[code])
	}
	if outPath != "" {
		data, merr := json.MarshalIndent(res, "", "  ")
		if merr != nil {
			fmt.Fprintf(os.Stderr, "loadgen: marshal result: %v\n", merr)
			return 1
		}
		if werr := os.WriteFile(outPath, append(data, '\n'), 0o644); werr != nil {
			fmt.Fprintf(os.Stderr, "loadgen: write %s: %v\n", outPath, werr)
			return 1
		}
		fmt.Fprintf(os.Stderr, "loadgen: wrote %s\n", outPath)
	}
	return 0
}
