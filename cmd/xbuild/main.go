// Command xbuild constructs a Twig XSKETCH synopsis for an XML document
// and reports its structure and size. With -trace it streams one JSONL
// telemetry event per adopted refinement to stderr while the build runs
// (op, target node, marginal gain, space delta, elapsed seconds).
//
// Usage:
//
//	xbuild -in doc.xml -budget 51200 [-trace] [-seed 1]
//	xbuild -dataset imdb -scale 0.1 -budget 4096 -o imdb.xsb
//	xbuild -dataset imdb -catalog ./sketches -name imdb
//
// Exactly one of -in (an XML file, '-' for stdin) or -dataset must be
// given. -o persists the synopsis in the standalone binary format
// (DESIGN.md §12) that xserve and xestimate load without the document.
// -catalog writes the synopsis into a catalog directory as <name>.xsb,
// ready for `xserve -catalog`. All artifact writes are atomic: a crash
// mid-write never leaves a torn file.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"

	"xsketch/internal/build"
	"xsketch/internal/catalog"
	"xsketch/internal/cli"
)

func main() {
	var (
		in      = flag.String("in", "", "input XML file ('-' for stdin)")
		dataset = flag.String("dataset", "", "generate a dataset instead of reading XML: xmark, imdb, sprot, parts")
		scale   = flag.Float64("scale", 0.1, "dataset scale when -dataset is used")
		budget  = flag.Int("budget", 50*1024, "synopsis space budget in bytes")
		seed    = flag.Int64("seed", 1, "random seed for XBUILD sampling")
		trace   = flag.Bool("trace", false, "stream one JSONL telemetry event per adopted refinement to stderr")
		steps   = flag.Int("steps", 1000, "max refinement steps")
		out     = flag.String("o", "", "persist the built synopsis to this file in the standalone binary format (load with xestimate/xserve, no document needed)")
		catDir  = flag.String("catalog", "", "write the synopsis into this catalog directory as <name>.xsb")
		name    = flag.String("name", "", "catalog entry name (default: -dataset name, or 'sketch')")
		dot     = flag.String("dot", "", "write the built synopsis as a Graphviz digraph to this file")
	)
	flag.Parse()

	doc, err := cli.LoadDoc(*in, *dataset, *scale, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	opts := build.DefaultOptions(*budget)
	opts.Seed = *seed
	opts.MaxSteps = *steps
	if *trace {
		opts.Sink = build.NewJSONLSink(os.Stderr)
	}
	b := build.NewBuilder(doc, opts)
	fmt.Printf("coarsest synopsis: %d nodes, %d edges, %d bytes\n",
		b.Sketch().Syn.NumNodes(), b.Sketch().Syn.NumEdges(), b.Sketch().SizeBytes())
	b.Run()
	sk := b.Sketch()
	if len(b.Steps()) == 0 && sk.SizeBytes() > *budget {
		fmt.Printf("budget below coarsest synopsis (%d bytes); no refinements applied\n", sk.SizeBytes())
	}
	fmt.Printf("built synopsis:    %d nodes, %d edges, %d bytes (budget %d, %d refinements)\n",
		sk.Syn.NumNodes(), sk.Syn.NumEdges(), sk.SizeBytes(), *budget, len(b.Steps()))
	fmt.Println(sk.Stats())
	if err := sk.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "synopsis validation failed:", err)
		os.Exit(1)
	}
	if *out != "" {
		data, err := catalog.EncodeBytes(sk)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := cli.WriteFileAtomic(*out, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("persisted synopsis to %s (standalone binary, %d bytes)\n", *out, len(data))
	}
	if *catDir != "" {
		entry := *name
		if entry == "" {
			entry = *dataset
		}
		if entry == "" {
			entry = "sketch"
		}
		path, err := catalog.Write(*catDir, entry, sk)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote catalog entry %s\n", path)
	}
	if *dot != "" {
		var buf bytes.Buffer
		if err := sk.WriteDOT(&buf); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := cli.WriteFileAtomic(*dot, buf.Bytes(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote DOT graph to %s\n", *dot)
	}
}
