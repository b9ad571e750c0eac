package experiments

import (
	"xsketch/internal/build"
	"xsketch/internal/cst"
	"xsketch/internal/metrics"
	"xsketch/internal/twig"
	"xsketch/internal/workload"
	"xsketch/internal/xmlgen"
	"xsketch/internal/xmltree"
	"xsketch/internal/xsketch"
)

// Options configures an experiment run.
type Options struct {
	// Scale is the dataset scale factor (1 = paper-sized, ~100k elements).
	Scale float64
	// Seed drives dataset, workload and construction sampling.
	Seed int64
	// WorkloadSize is the number of queries per evaluation workload
	// (paper: 1000 for P/P+V, 500 for the CST comparison).
	WorkloadSize int
	// BudgetFactors are the synopsis-size sweep points as multiples of the
	// coarsest synopsis size.
	BudgetFactors []float64
	// BuildMaxSteps bounds XBUILD iterations per budget sweep.
	BuildMaxSteps int
	// OutlierCap excludes individual errors above this value when scoring
	// CSTs (paper: estimates beyond 1000% are excluded); 0 disables.
	OutlierCap float64
	// Datasets restricts the run; empty means the paper's selection per
	// experiment.
	Datasets []string
	// Workers is the estimation worker count used when scoring workloads
	// on a synopsis (Sketch.EstimateBatch); <= 0 selects GOMAXPROCS.
	Workers int
}

// DefaultOptions returns a laptop-scale configuration: ~5k-element
// documents and 120-query workloads. The experiment shapes (who wins,
// how error declines) match the paper; absolute sizes do not need to.
func DefaultOptions() Options {
	return Options{
		Scale:         0.05,
		Seed:          1,
		WorkloadSize:  120,
		BudgetFactors: []float64{1, 1.5, 2, 3, 4, 6},
		BuildMaxSteps: 300,
		OutlierCap:    10,
	}
}

// PaperOptions returns the full-scale configuration matching the paper's
// setup (slow: minutes per figure).
func PaperOptions() Options {
	o := DefaultOptions()
	o.Scale = 1
	o.WorkloadSize = 1000
	return o
}

// dataset materializes one generated document with cached derived state.
type dataset struct {
	name string
	doc  *xmltree.Document
}

func (o Options) datasets(names ...string) []dataset {
	selected := names
	if len(o.Datasets) > 0 {
		selected = nil
		for _, n := range names {
			for _, want := range o.Datasets {
				if n == want {
					selected = append(selected, n)
				}
			}
		}
	}
	out := make([]dataset, 0, len(selected))
	for _, n := range selected {
		out = append(out, dataset{
			name: n,
			doc:  xmlgen.Generate(n, xmlgen.Config{Seed: o.Seed, Scale: o.Scale}),
		})
	}
	return out
}

// Table1Row is one row of the paper's Table 1.
type Table1Row struct {
	Dataset      string
	ElementCount int
	TextMB       float64
	CoarsestKB   float64
}

// Table1 reports dataset characteristics: element count, serialized text
// size, and the size of the coarsest Twig XSKETCH.
func Table1(o Options) []Table1Row {
	var rows []Table1Row
	for _, ds := range o.datasets(xmlgen.Names()...) {
		stats := xmltree.ComputeStats(ds.doc)
		coarse := xsketch.New(ds.doc, xsketch.DefaultConfig())
		rows = append(rows, Table1Row{
			Dataset:      ds.name,
			ElementCount: stats.ElementCount,
			TextMB:       float64(stats.TextBytes) / (1 << 20),
			CoarsestKB:   float64(coarse.SizeBytes()) / 1024,
		})
	}
	return rows
}

// Table2Row is one row of the paper's Table 2.
type Table2Row struct {
	Dataset   string
	Workload  string
	AvgResult float64
	AvgFanout float64
}

// Table2 reports workload characteristics (average result cardinality and
// internal-node fanout) for the P and P+V workloads on XMark and IMDB and
// the P workload on SwissProt, matching the paper's table layout.
func Table2(o Options) []Table2Row {
	var rows []Table2Row
	for _, ds := range o.datasets(xmlgen.Names()...) {
		kinds := []workload.Kind{workload.KindP, workload.KindPV}
		if ds.name == xmlgen.SwissProtName {
			kinds = kinds[:1] // the paper reports P only for SwissProt
		}
		for _, kind := range kinds {
			w := o.makeWorkload(ds.doc, kind)
			st := w.Stats()
			rows = append(rows, Table2Row{
				Dataset:   ds.name,
				Workload:  kind.String(),
				AvgResult: st.AvgResult,
				AvgFanout: st.AvgFanout,
			})
		}
	}
	return rows
}

func (o Options) makeWorkload(doc *xmltree.Document, kind workload.Kind) *workload.Workload {
	cfg := workload.DefaultConfig(kind)
	cfg.NumQueries = o.WorkloadSize
	cfg.Seed = o.Seed + int64(kind)*101
	return workload.Generate(doc, cfg)
}

// SweepPoint is one (size, error) point of an error-vs-size curve.
type SweepPoint struct {
	SizeKB   float64
	AvgError float64
}

// Series is an error curve for one dataset.
type Series struct {
	Dataset string
	Points  []SweepPoint
}

// Figure9a sweeps synopsis size against the P (branching predicates)
// workload on XMark and IMDB.
func Figure9a(o Options) []Series {
	return o.errorSweep(workload.KindP, xmlgen.XMarkName, xmlgen.IMDBName)
}

// Figure9b sweeps synopsis size against the P+V (branching + value
// predicates) workload on XMark and IMDB.
func Figure9b(o Options) []Series {
	return o.errorSweep(workload.KindPV, xmlgen.XMarkName, xmlgen.IMDBName)
}

// errorSweep builds one XBUILD run per dataset, snapshotting the error at
// each budget point.
func (o Options) errorSweep(kind workload.Kind, names ...string) []Series {
	var out []Series
	for _, ds := range o.datasets(names...) {
		w := o.makeWorkload(ds.doc, kind)
		out = append(out, Series{Dataset: ds.name, Points: o.sweepSketch(ds.doc, w, nil)})
	}
	return out
}

// sweepSketch runs XBUILD once and scores the evaluation workload at each
// budget threshold. mutateOpts, when non-nil, adjusts the build options
// (used by ablations).
func (o Options) sweepSketch(doc *xmltree.Document, w *workload.Workload, mutateOpts func(*build.Options)) []SweepPoint {
	coarseSize := xsketch.New(doc, xsketch.DefaultConfig()).SizeBytes()
	opts := build.DefaultOptions(1 << 30)
	opts.Seed = o.Seed
	opts.MaxSteps = o.BuildMaxSteps
	if mutateOpts != nil {
		mutateOpts(&opts)
	}
	b := build.NewBuilder(doc, opts)
	var points []SweepPoint
	for _, f := range o.BudgetFactors {
		target := int(f * float64(coarseSize))
		b.RunTo(target)
		sk := b.Sketch()
		points = append(points, SweepPoint{
			SizeKB:   float64(sk.SizeBytes()) / 1024,
			AvgError: scoreXSketch(sk, w, 0, o),
		})
	}
	return points
}

// scoreXSketch evaluates the workload on the sketch's concurrent batch
// path (o.Workers <= 0 selects GOMAXPROCS); estimates are bit-identical to
// the sequential path for any worker count.
func scoreXSketch(sk *xsketch.Sketch, w *workload.Workload, outlierCap float64, o Options) float64 {
	ests := estimateWorkload(sk, w, o)
	results := make([]metrics.Result, len(w.Queries))
	for i, q := range w.Queries {
		results[i] = metrics.Result{Truth: q.Truth, Estimate: ests[i].Estimate}
	}
	return metrics.Evaluate(results, outlierCap).AvgError
}

// estimateWorkload runs a workload's queries through Sketch.EstimateBatch.
func estimateWorkload(sk *xsketch.Sketch, w *workload.Workload, o Options) []xsketch.EstimateResult {
	qs := make([]*twig.Query, len(w.Queries))
	for i, q := range w.Queries {
		qs[i] = q.Twig
	}
	return sk.EstimateBatch(qs, o.Workers)
}

func scoreCST(c *cst.CST, w *workload.Workload, outlierCap float64) float64 {
	results := make([]metrics.Result, len(w.Queries))
	for i, q := range w.Queries {
		results[i] = metrics.Result{Truth: q.Truth, Estimate: c.EstimateQuery(q.Twig)}
	}
	return metrics.Evaluate(results, outlierCap).AvgError
}

// RatioPoint is one point of the Figure 9(c) comparison.
type RatioPoint struct {
	SizeKB float64
	ErrCST float64
	ErrX   float64
	// Ratio is errCST / errX (the paper's y-axis); +Inf-avoiding: when the
	// XSKETCH error is ~0 the ratio is reported against a 0.1% floor.
	Ratio float64
}

// RatioSeries is the Figure 9(c) curve for one dataset.
type RatioSeries struct {
	Dataset string
	Points  []RatioPoint
}

// Figure9c compares CSTs against Twig XSKETCHes on workloads of twig
// queries with simple path expressions, reporting err_CST / err_X at each
// budget on all three datasets. CST outliers beyond OutlierCap are
// excluded, as in the paper.
func Figure9c(o Options) []RatioSeries {
	var out []RatioSeries
	for _, ds := range o.datasets(xmlgen.Names()...) {
		wcfg := workload.DefaultConfig(workload.KindSimple)
		wcfg.NumQueries = o.WorkloadSize / 2 // paper: 500 vs 1000
		if wcfg.NumQueries < 10 {
			wcfg.NumQueries = 10
		}
		wcfg.Seed = o.Seed + 7
		w := workload.Generate(ds.doc, wcfg)

		coarseSize := xsketch.New(ds.doc, xsketch.DefaultConfig()).SizeBytes()
		opts := build.DefaultOptions(1 << 30)
		opts.Seed = o.Seed
		opts.MaxSteps = o.BuildMaxSteps
		// The comparison workload has no value predicates; spend the budget
		// on structure (matching the value-free CST).
		opts.Sketch.InitialValueBuckets = 0
		b := build.NewBuilder(ds.doc, opts)

		series := RatioSeries{Dataset: ds.name}
		for _, f := range o.BudgetFactors {
			target := int(f * float64(coarseSize))
			b.RunTo(target)
			sk := b.Sketch()
			size := sk.SizeBytes()

			// Prune a fresh CST to the same byte budget for a fair
			// comparison.
			c := cst.Build(ds.doc, cst.DefaultConfig())
			if c.SizeBytes() > size {
				c.Prune(size)
			}
			errX := scoreXSketch(sk, w, 0, o)
			errC := scoreCST(c, w, o.OutlierCap)
			floor := 0.001
			den := errX
			if den < floor {
				den = floor
			}
			series.Points = append(series.Points, RatioPoint{
				SizeKB: float64(size) / 1024,
				ErrCST: errC,
				ErrX:   errX,
				Ratio:  errC / den,
			})
		}
		out = append(out, series)
	}
	return out
}

// result couples a truth with an estimate (shared by the scoring helpers).
type result struct {
	truth int64
	est   float64
}

// scoreResults evaluates a result batch with the paper's metric.
func scoreResults(rs []result, outlierCap float64) float64 {
	conv := make([]metrics.Result, len(rs))
	for i, r := range rs {
		conv[i] = metrics.Result{Truth: r.truth, Estimate: r.est}
	}
	return metrics.Evaluate(conv, outlierCap).AvgError
}
