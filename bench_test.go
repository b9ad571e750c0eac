// These benchmarks regenerate every table and figure of the paper (via
// internal/experiments) and measure the throughput of the core operations.
// Run with:
//
//	go test -bench=. -benchmem
//
// The table/figure benchmarks execute the full experiment per iteration at
// a reduced scale and report the headline error metrics via ReportMetric;
// use `go test -bench=Figure -v` to see the regenerated rows, or
// cmd/xbench for configurable-scale runs (including -paper).
package xsketch_test

import (
	"bytes"
	"testing"

	"xsketch/internal/build"
	"xsketch/internal/cst"
	"xsketch/internal/eval"
	"xsketch/internal/experiments"
	"xsketch/internal/histogram"
	"xsketch/internal/twig"
	"xsketch/internal/workload"
	"xsketch/internal/xmlgen"
	"xsketch/internal/xmltree"
	"xsketch/internal/xsketch"
)

// benchOptions is the reduced-scale configuration used by the experiment
// benchmarks.
func benchOptions() experiments.Options {
	o := experiments.DefaultOptions()
	o.Scale = 0.02
	o.WorkloadSize = 40
	o.BudgetFactors = []float64{1, 2, 4}
	o.BuildMaxSteps = 60
	return o
}

func BenchmarkTable1(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1(o)
		if i == 0 {
			var buf bytes.Buffer
			experiments.FormatTable1(&buf, rows)
			b.Log("\n" + buf.String())
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2(o)
		if i == 0 {
			var buf bytes.Buffer
			experiments.FormatTable2(&buf, rows)
			b.Log("\n" + buf.String())
		}
	}
}

func BenchmarkFigure9a(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		series := experiments.Figure9a(o)
		if i == 0 {
			reportSeries(b, "Figure 9(a). Branching Predicates", series)
		}
	}
}

func BenchmarkFigure9b(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		series := experiments.Figure9b(o)
		if i == 0 {
			reportSeries(b, "Figure 9(b). Branching and Value Predicates", series)
		}
	}
}

func reportSeries(b *testing.B, title string, series []experiments.Series) {
	b.Helper()
	var buf bytes.Buffer
	experiments.FormatSeries(&buf, title, series)
	b.Log("\n" + buf.String())
	for _, s := range series {
		if len(s.Points) > 0 {
			last := s.Points[len(s.Points)-1]
			b.ReportMetric(last.AvgError*100, s.Dataset+"_final_err_%")
		}
	}
}

func BenchmarkFigure9c(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		series := experiments.Figure9c(o)
		if i == 0 {
			var buf bytes.Buffer
			experiments.FormatRatios(&buf, series)
			b.Log("\n" + buf.String())
			for _, s := range series {
				if len(s.Points) > 0 {
					b.ReportMetric(s.Points[len(s.Points)-1].Ratio, s.Dataset+"_final_ratio")
				}
			}
		}
	}
}

func BenchmarkNegativeWorkload(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		rows := experiments.NegativeWorkload(o)
		if i == 0 {
			var buf bytes.Buffer
			experiments.FormatNegative(&buf, rows)
			b.Log("\n" + buf.String())
		}
	}
}

func BenchmarkSinglePathComparison(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		rows := experiments.SinglePathComparison(o)
		if i == 0 {
			var buf bytes.Buffer
			experiments.FormatSinglePath(&buf, rows)
			b.Log("\n" + buf.String())
		}
	}
}

func BenchmarkAblationRefinementPolicy(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		rows := experiments.AblationRefinementPolicy(o)
		if i == 0 {
			var buf bytes.Buffer
			experiments.FormatAblation(&buf, "refinement selection policy", rows)
			b.Log("\n" + buf.String())
		}
	}
}

func BenchmarkAblationBackwardCounts(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		rows := experiments.AblationBackwardCounts(o)
		if i == 0 {
			var buf bytes.Buffer
			experiments.FormatAblation(&buf, "backward counts", rows)
			b.Log("\n" + buf.String())
		}
	}
}

func BenchmarkAblationBucketBudget(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		rows := experiments.AblationBucketBudget(o)
		if i == 0 {
			var buf bytes.Buffer
			experiments.FormatAblation(&buf, "bucket budget", rows)
			b.Log("\n" + buf.String())
		}
	}
}

func BenchmarkAblationValueExpand(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		rows := experiments.AblationValueExpand(o)
		if i == 0 {
			var buf bytes.Buffer
			experiments.FormatAblation(&buf, "extended value histograms H^v", rows)
			b.Log("\n" + buf.String())
		}
	}
}

// --- Micro-benchmarks of the core operations. ---

func benchDocAndSketch(b *testing.B) (*xmltree.Document, *xsketch.Sketch, *workload.Workload) {
	b.Helper()
	d := xmlgen.IMDB(xmlgen.Config{Seed: 1, Scale: 0.05})
	sk := build.XBuild(d, build.DefaultOptions(4096))
	wcfg := workload.DefaultConfig(workload.KindP)
	wcfg.NumQueries = 50
	w := workload.Generate(d, wcfg)
	return d, sk, w
}

func BenchmarkEstimateQuery(b *testing.B) {
	_, sk, w := benchDocAndSketch(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := w.Queries[i%len(w.Queries)]
		sk.EstimateQuery(q.Twig)
	}
}

// benchXMarkEstimation builds a coarsest XMark synopsis and a 50-query
// P+V workload for the batch-estimation benchmarks.
func benchXMarkEstimation(b *testing.B) (*xsketch.Sketch, []*twig.Query) {
	b.Helper()
	d := xmlgen.XMark(xmlgen.Config{Seed: 1, Scale: 0.05})
	sk := xsketch.New(d, xsketch.DefaultConfig())
	wcfg := workload.DefaultConfig(workload.KindPV)
	wcfg.NumQueries = 50
	w := workload.Generate(d, wcfg)
	qs := make([]*twig.Query, len(w.Queries))
	for i, q := range w.Queries {
		qs[i] = q.Twig
	}
	return sk, qs
}

// BenchmarkEstimateWorkloadSequentialUncached is the baseline the batch
// engine is measured against: one query at a time, each on a cold
// estimator memo.
func BenchmarkEstimateWorkloadSequentialUncached(b *testing.B) {
	sk, qs := benchXMarkEstimation(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			cold(b, sk).EstimateQuery(q)
		}
	}
}

// BenchmarkEstimateWorkloadBatchCachedSerial isolates the cache's effect:
// same single-threaded execution, memoized expansion and exists-fractions.
func BenchmarkEstimateWorkloadBatchCachedSerial(b *testing.B) {
	sk, qs := benchXMarkEstimation(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.EstimateBatch(qs, 1)
	}
}

// BenchmarkEstimateWorkloadBatchCached is the full batch path: worker pool
// (GOMAXPROCS) plus the shared per-sketch cache.
func BenchmarkEstimateWorkloadBatchCached(b *testing.B) {
	sk, qs := benchXMarkEstimation(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.EstimateBatch(qs, 0)
	}
}

func BenchmarkExactSelectivity(b *testing.B) {
	d, _, w := benchDocAndSketch(b)
	ev := eval.New(d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := w.Queries[i%len(w.Queries)]
		ev.Selectivity(q.Twig)
	}
}

func BenchmarkCSTEstimate(b *testing.B) {
	d := xmlgen.IMDB(xmlgen.Config{Seed: 1, Scale: 0.05})
	c := cst.Build(d, cst.DefaultConfig())
	wcfg := workload.DefaultConfig(workload.KindSimple)
	wcfg.NumQueries = 50
	w := workload.Generate(d, wcfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := w.Queries[i%len(w.Queries)]
		c.EstimateQuery(q.Twig)
	}
}

// BenchmarkXBuildRun times a whole XBUILD run at served size: xmark at
// scale 1.5 (150,890 elements) and budget 51200, the synopsis servebench's
// batch-wide workload builds. Costs that grow with the document (clones,
// splits, rebuilds, anchored resamples) show here; one step on a small
// document hides them.
func BenchmarkXBuildRun(b *testing.B) {
	d := xmlgen.XMark(xmlgen.Config{Seed: 1, Scale: 1.5})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		build.NewBuilder(d, build.DefaultOptions(51200)).Run()
	}
}

func BenchmarkCoarsestSynopsis(b *testing.B) {
	d := xmlgen.XMark(xmlgen.Config{Seed: 1, Scale: 0.1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xsketch.New(d, xsketch.DefaultConfig())
	}
}

func BenchmarkHistogramCompress(b *testing.B) {
	s := histogram.NewSparse(3)
	rng := int32(1)
	for i := 0; i < 2000; i++ {
		rng = rng*1103515245 + 12345
		s.Add([]int32{rng % 40 & 0x1f, (rng >> 5) & 0x1f, (rng >> 10) & 0x7}, 1)
	}
	s.Normalize()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		histogram.Compress(s, 16)
	}
}

func BenchmarkGenerateIMDB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		xmlgen.IMDB(xmlgen.Config{Seed: int64(i), Scale: 0.05})
	}
}

func BenchmarkParseSerialized(b *testing.B) {
	d := xmlgen.SwissProt(xmlgen.Config{Seed: 1, Scale: 0.05})
	var buf bytes.Buffer
	if err := xmltree.Serialize(&buf, d); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xmltree.Parse(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorkloadGenerate(b *testing.B) {
	d := xmlgen.XMark(xmlgen.Config{Seed: 1, Scale: 0.05})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := workload.DefaultConfig(workload.KindP)
		cfg.NumQueries = 20
		cfg.Seed = int64(i)
		workload.Generate(d, cfg)
	}
}

func BenchmarkEmbeddingEnumeration(b *testing.B) {
	d := xmlgen.XMark(xmlgen.Config{Seed: 1, Scale: 0.05})
	sk := xsketch.New(d, xsketch.DefaultConfig())
	q := twig.MustParse("t0 in //item, t1 in t0/mailbox//mail, t2 in t1/from")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.Embeddings(q)
	}
}

func BenchmarkAblationReferenceScoring(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		rows := experiments.AblationReferenceScoring(o)
		if i == 0 {
			var buf bytes.Buffer
			experiments.FormatAblation(&buf, "XBUILD scoring truths", rows)
			b.Log("\n" + buf.String())
		}
	}
}

func BenchmarkThreeWayComparison(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		rows := experiments.ThreeWay(o)
		if i == 0 {
			var buf bytes.Buffer
			experiments.FormatThreeWay(&buf, rows)
			b.Log("\n" + buf.String())
		}
	}
}
