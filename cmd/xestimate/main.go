// Command xestimate estimates the selectivity of a twig query over an XML
// document using a Twig XSKETCH built on the fly, and compares it against
// the exact count.
//
// Usage:
//
//	xestimate -in doc.xml -query "for t0 in //movie, t1 in t0/actor" [-budget 8192]
//	xestimate -dataset imdb -scale 0.1 -query "t0 in movie[type=0], t1 in t0/actor, t2 in t0/producer"
//	xestimate -synopsis imdb.xsb -query "t0 in movie, t1 in t0/actor"
//
// -synopsis loads a synopsis persisted by `xbuild -o` (the binary format
// of DESIGN.md §12) instead of building one; it needs no document, and
// the exact count is skipped unless -in or -dataset supplies one.
//
// The query uses the paper's for-clause notation (see internal/twig).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"xsketch/internal/build"
	"xsketch/internal/catalog"
	"xsketch/internal/cli"
	"xsketch/internal/eval"
	"xsketch/internal/twig"
	"xsketch/internal/xmltree"
	"xsketch/internal/xsketch"
)

func main() {
	var (
		in       = flag.String("in", "", "input XML file ('-' for stdin)")
		dataset  = flag.String("dataset", "", "generate a dataset instead of reading XML")
		scale    = flag.Float64("scale", 0.1, "dataset scale when -dataset is used")
		query    = flag.String("query", "", "twig query in for-clause notation (required)")
		budget   = flag.Int("budget", 16*1024, "synopsis space budget in bytes")
		seed     = flag.Int64("seed", 1, "random seed")
		exact    = flag.Bool("exact", true, "also compute the exact selectivity")
		synopsis = flag.String("synopsis", "", "load a persisted synopsis (from xbuild -o) instead of building one")
		explain  = flag.Bool("explain", false, "print the structured estimation trace")
		format   = flag.String("format", "text", "explain output format: json or text")
		plan     = flag.Bool("plan", false, "estimate through the compiled-plan path and print the plan summary")
	)
	flag.Parse()

	if *query == "" {
		fmt.Fprintln(os.Stderr, "-query is required")
		os.Exit(2)
	}
	q, err := twig.Parse(*query)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// A persisted synopsis (xbuild -o, DESIGN.md §12) loads with no
	// document; one is loaded only when -in or -dataset asks for it, to
	// compute the exact count.
	var doc *xmltree.Document
	if *synopsis == "" || *in != "" || *dataset != "" {
		doc, err = cli.LoadDoc(*in, *dataset, *scale, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	var sk *xsketch.Sketch
	if *synopsis != "" {
		sk, _, err = catalog.Open(*synopsis)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		opts := build.DefaultOptions(*budget)
		opts.Seed = *seed
		sk = build.XBuild(doc, opts)
	}
	var est float64
	if *explain {
		// The explain run doubles as the estimate so the trace reflects a
		// cold estimator cache — that keeps -format json byte-stable run
		// over run.
		ex := sk.ExplainQuery(q)
		var err error
		switch *format {
		case "json":
			err = ex.WriteJSON(os.Stdout)
		case "text":
			err = ex.WriteText(os.Stdout)
		default:
			fmt.Fprintf(os.Stderr, "unknown -format %q (want json or text)\n", *format)
			os.Exit(2)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		est = ex.Estimate
	} else if *plan {
		p := sk.PlanQuery(q)
		res, err := sk.EstimatePlanContext(context.Background(), p)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		est = res.Estimate
		fmt.Printf("plan:      %s\n", p)
	} else {
		est = sk.EstimateQuery(q)
	}
	fmt.Printf("query:     %s\n", q)
	fmt.Printf("synopsis:  %d bytes (%d nodes)\n", sk.SizeBytes(), sk.Syn.NumNodes())
	fmt.Printf("estimate:  %.2f binding tuples\n", est)
	if *exact && doc == nil {
		fmt.Println("exact:     skipped (standalone synopsis, no document; pass -in or -dataset to compare)")
	} else if *exact {
		truth := eval.New(doc).Selectivity(q)
		fmt.Printf("exact:     %d binding tuples\n", truth)
		denom := float64(truth)
		if denom < 1 {
			denom = 1
		}
		fmt.Printf("rel error: %.1f%%\n", 100*abs(est-float64(truth))/denom)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
