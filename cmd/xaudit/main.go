// Command xaudit replays an accuracy audit log (the JSONL journal xserve
// writes under -audit-log) against a document and reports per-sketch
// estimate quality offline: mean/p50/p95/max q-error plus the worst
// queries. It shares the q-error definition and the exact evaluator with
// the online auditor, so its numbers match the live xserve_accuracy_*
// metrics bit-for-bit on the same records. See SERVING.md for the audit
// pipeline and DESIGN.md §14 for the design.
//
// Usage:
//
//	xaudit -log audit.jsonl -dataset imdb -scale 0.05
//	xaudit -log audit.jsonl -in doc.xml -sketch docs -format json
//
// The document must be the one the audited sketches summarized (same
// dataset, scale and seed, or the same XML file); ground truth is
// recomputed against it with internal/eval.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"xsketch/internal/accuracy"
	"xsketch/internal/cli"
)

// run is the command body, split from main so tests can drive it: it
// returns the process exit code and writes the report to stdout and
// errors to stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xaudit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		logPath = fs.String("log", "", "audit JSONL log to replay (required; '-' for stdin)")
		in      = fs.String("in", "", "input XML file the sketches summarized ('-' for stdin)")
		dataset = fs.String("dataset", "", "generate a dataset instead of reading XML")
		scale   = fs.Float64("scale", 0.05, "dataset scale when -dataset is used")
		seed    = fs.Int64("seed", 1, "random seed for dataset generation")
		sketch  = fs.String("sketch", "", "only replay records served from this sketch")
		format  = fs.String("format", "text", "report format: json or text")
		topN    = fs.Int("top", 5, "worst queries listed per sketch (0 omits the list)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *logPath == "" {
		fmt.Fprintln(stderr, "-log is required")
		return 2
	}
	if *format != "json" && *format != "text" {
		fmt.Fprintf(stderr, "unknown -format %q (want json or text)\n", *format)
		return 2
	}
	if *topN < 0 {
		fmt.Fprintln(stderr, "-top must be non-negative")
		return 2
	}
	if *logPath == "-" && *in == "-" {
		fmt.Fprintln(stderr, "-log and -in cannot both read stdin")
		return 2
	}

	var logSrc io.Reader = os.Stdin
	if *logPath != "-" {
		f, err := os.Open(*logPath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer f.Close()
		logSrc = f
	}
	records, err := accuracy.ReadLog(logSrc)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *sketch != "" {
		kept := records[:0]
		for _, rec := range records {
			if rec.Sketch == *sketch {
				kept = append(kept, rec)
			}
		}
		records = kept
	}
	if len(records) == 0 {
		fmt.Fprintln(stderr, "no audit records to replay")
		return 1
	}

	doc, err := cli.LoadDoc(*in, *dataset, *scale, *seed)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	rep, err := accuracy.Replay(records, doc, *topN)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	switch *format {
	case "json":
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	default:
		fmt.Fprint(stdout, rep.Text())
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
