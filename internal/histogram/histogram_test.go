package histogram

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSparseAddNormalize(t *testing.T) {
	s := NewSparse(2)
	s.Add([]int32{1, 2}, 1)
	s.Add([]int32{1, 2}, 1)
	s.Add([]int32{3, 4}, 2)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Total() != 4 {
		t.Fatalf("Total = %v", s.Total())
	}
	s.Normalize()
	pts := s.Points()
	if !almostEq(pts[0].Freq, 0.5) || !almostEq(pts[1].Freq, 0.5) {
		t.Fatalf("normalized points = %+v", pts)
	}
	// Deterministic ordering.
	if pts[0].Coords[0] != 1 || pts[1].Coords[0] != 3 {
		t.Fatalf("points unsorted: %+v", pts)
	}
}

func TestSparseZeroDim(t *testing.T) {
	s := NewSparse(0)
	s.Add(nil, 3)
	s.Normalize()
	if s.Len() != 1 || !almostEq(s.Points()[0].Freq, 1) {
		t.Fatalf("zero-dim distribution = %+v", s.Points())
	}
}

func TestSparseAddPanicsOnWrongArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on arity mismatch")
		}
	}()
	NewSparse(2).Add([]int32{1}, 1)
}

// TestSparseAddExistingPointAllocatesNothing pins the stack-built key:
// accumulating onto a known point allocates nothing, and only a new point
// pays for its key and coordinates.
func TestSparseAddExistingPointAllocatesNothing(t *testing.T) {
	s := NewSparse(3)
	coords := []int32{7, -1, 1 << 20}
	s.Add(coords, 1)
	if got := testing.AllocsPerRun(100, func() { s.Add(coords, 1) }); got != 0 {
		t.Fatalf("Add on an existing point: %v allocations, want 0", got)
	}
	if s.Len() != 1 || s.Total() != 102 {
		t.Fatalf("Len %d, Total %v after 102 adds of one point", s.Len(), s.Total())
	}
	// Wider than the stack buffer: still correct, just not allocation-free.
	wide := make([]int32, 20)
	w := NewSparse(len(wide))
	w.Add(wide, 1)
	wide[19] = 1
	w.Add(wide, 1)
	wide[19] = 0
	w.Add(wide, 1)
	if pts := w.Points(); len(pts) != 2 || pts[0].Freq != 2 || pts[1].Freq != 1 {
		t.Fatalf("wide points = %+v", pts)
	}
}

func TestCompressExactWhenSmall(t *testing.T) {
	s := NewSparse(2)
	s.Add([]int32{10, 100}, 0.5)
	s.Add([]int32{100, 10}, 0.5)
	h := Compress(s, 4)
	if h.NumBuckets() != 2 {
		t.Fatalf("NumBuckets = %d", h.NumBuckets())
	}
	// Paper Figure 4: Σ f(b,c)*b*c = 0.5*1000 + 0.5*1000 = 1000.
	if got := h.SumProduct([]int{0, 1}); !almostEq(got, 1000) {
		t.Fatalf("SumProduct = %v, want 1000", got)
	}
	if got := h.SumProduct(nil); !almostEq(got, 1) {
		t.Fatalf("TotalFreq via SumProduct = %v", got)
	}
}

func TestCompressPreservesMassAndMean(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSparse(3)
		n := rng.Intn(200) + 10
		for i := 0; i < n; i++ {
			s.Add([]int32{int32(rng.Intn(20)), int32(rng.Intn(20)), int32(rng.Intn(5))}, rng.Float64()+0.01)
		}
		s.Normalize()
		exactMean := make([]float64, 3)
		for _, p := range s.Points() {
			for j, c := range p.Coords {
				exactMean[j] += p.Freq * float64(c)
			}
		}
		for _, budget := range []int{1, 4, 16} {
			h := Compress(s, budget)
			if h.NumBuckets() > budget {
				t.Logf("bucket budget exceeded: %d > %d", h.NumBuckets(), budget)
				return false
			}
			if !almostEq(h.TotalFreq(), 1) {
				t.Logf("mass not preserved: %v", h.TotalFreq())
				return false
			}
			// Per-dimension means are preserved exactly by centroid
			// bucketing (weighted average of weighted averages).
			for j := 0; j < 3; j++ {
				if math.Abs(h.Mean(j)-exactMean[j]) > 1e-6 {
					t.Logf("mean[%d] = %v, exact %v (budget %d)", j, h.Mean(j), exactMean[j], budget)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCompressReducesToBudget(t *testing.T) {
	s := NewSparse(1)
	for i := 0; i < 100; i++ {
		s.Add([]int32{int32(i)}, 1)
	}
	s.Normalize()
	h := Compress(s, 10)
	if h.NumBuckets() != 10 {
		t.Fatalf("NumBuckets = %d, want 10", h.NumBuckets())
	}
	// SumProduct approximates the true mean * 1.
	want := 49.5
	if math.Abs(h.SumProduct([]int{0})-want) > 1e-6 {
		t.Fatalf("SumProduct = %v, want %v", h.SumProduct([]int{0}), want)
	}
}

func TestCompressSkewIsolatesHeavyPoint(t *testing.T) {
	// A heavily skewed distribution: one huge count point and uniform
	// noise. With enough buckets the big point should sit in a bucket whose
	// centroid is closer to it than a single-bucket average would be.
	s := NewSparse(1)
	s.Add([]int32{1000}, 0.5)
	for i := 0; i < 20; i++ {
		s.Add([]int32{int32(i)}, 0.025)
	}
	h1 := Compress(s, 1)
	h4 := Compress(s, 4)
	exact := Exact(s)
	truth := exact.SumProduct([]int{0})
	e1 := math.Abs(h1.SumProduct([]int{0}) - truth)
	e4 := math.Abs(h4.SumProduct([]int{0}) - truth)
	if e4 > e1 {
		t.Fatalf("more buckets increased SumProduct error: %v vs %v", e4, e1)
	}
	// The second moment (product over the same dim twice is not available;
	// check bucket structure instead): some bucket should have centroid
	// near 1000.
	found := false
	for _, b := range h4.Buckets() {
		if b.Centroid[0] > 900 {
			found = true
		}
	}
	if !found {
		t.Fatal("no bucket isolates the heavy point")
	}
}

func TestExact(t *testing.T) {
	s := NewSparse(2)
	s.Add([]int32{1, 1}, 0.25)
	s.Add([]int32{2, 1}, 0.25)
	s.Add([]int32{1, 2}, 0.5)
	h := Exact(s)
	if h.NumBuckets() != 3 {
		t.Fatalf("NumBuckets = %d", h.NumBuckets())
	}
}

func TestFromBucketsAndCond(t *testing.T) {
	// The paper's worked example (Section 4): H_P(k, y, p) with dims
	// ordered (k, y, p).
	hp := FromBuckets(3, []Bucket{
		{Centroid: []float64{2, 1, 2}, Freq: 0.25},
		{Centroid: []float64{1, 1, 2}, Freq: 0.25},
		{Centroid: []float64{1, 1, 1}, Freq: 0.50},
	})
	// F_P(k,y | p=2) = (0.25*2*1 + 0.25*1*1) / 0.5 = 1.5
	got := hp.CondSumProduct([]int{0, 1}, []int{2}, []float64{2})
	if !almostEq(got, 1.5) {
		t.Fatalf("CondSumProduct(p=2) = %v, want 1.5", got)
	}
	// F_P(k,y | p=1) = (0.5*1*1) / 0.5 = 1
	got = hp.CondSumProduct([]int{0, 1}, []int{2}, []float64{1})
	if !almostEq(got, 1) {
		t.Fatalf("CondSumProduct(p=1) = %v, want 1", got)
	}
	// Unconditioned: Σ f * k * y = 0.25*2 + 0.25*1 + 0.5*1 = 1.25
	if got := hp.SumProduct([]int{0, 1}); !almostEq(got, 1.25) {
		t.Fatalf("SumProduct = %v, want 1.25", got)
	}
}

func TestMatchNearestFallback(t *testing.T) {
	h := FromBuckets(2, []Bucket{
		{Centroid: []float64{1, 5}, Freq: 0.5},
		{Centroid: []float64{4, 7}, Freq: 0.5},
	})
	// Condition on dim 0 = 3: no exact match; nearest is centroid 4.
	buckets, freq := h.Match([]int{0}, []float64{3})
	if len(buckets) != 1 || buckets[0].Centroid[0] != 4 {
		t.Fatalf("nearest match = %+v", buckets)
	}
	if !almostEq(freq, 0.5) {
		t.Fatalf("freq = %v", freq)
	}
	// Empty condition matches everything.
	all, f := h.Match(nil, nil)
	if len(all) != 2 || !almostEq(f, 1) {
		t.Fatalf("empty match = %d buckets, freq %v", len(all), f)
	}
}

func TestCondSumProductZeroDenominator(t *testing.T) {
	h := FromBuckets(1, nil)
	if got := h.CondSumProduct(nil, []int{0}, []float64{1}); got != 0 {
		t.Fatalf("empty histogram conditional = %v", got)
	}
}

func TestFromBucketsPanicsOnArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	FromBuckets(2, []Bucket{{Centroid: []float64{1}, Freq: 1}})
}

func TestValueHistogramBasic(t *testing.T) {
	vals := []int64{1998, 1999, 2001, 2002}
	h := NewValueHistogram(vals, 4)
	if h.Total() != 4 {
		t.Fatalf("Total = %d", h.Total())
	}
	if got := h.Selectivity(2001, math.MaxInt64); !almostEq(got, 0.5) {
		t.Fatalf("Selectivity(>2000) = %v, want 0.5", got)
	}
	if got := h.Selectivity(1998, 2002); !almostEq(got, 1) {
		t.Fatalf("full range = %v", got)
	}
	if got := h.Selectivity(3000, 4000); got != 0 {
		t.Fatalf("out of range = %v", got)
	}
	if got := h.Selectivity(10, 5); got != 0 {
		t.Fatalf("empty range = %v", got)
	}
	lo, hi, ok := h.Domain()
	if !ok || lo != 1998 || hi != 2002 {
		t.Fatalf("Domain = %d..%d %v", lo, hi, ok)
	}
}

func TestValueHistogramEmpty(t *testing.T) {
	h := NewValueHistogram(nil, 8)
	if h.Selectivity(0, 100) != 0 || h.Total() != 0 {
		t.Fatal("empty histogram misbehaves")
	}
	if _, _, ok := h.Domain(); ok {
		t.Fatal("empty Domain ok")
	}
}

func TestValueHistogramEquiDepthExactOnBoundaries(t *testing.T) {
	// 100 values 0..99, 10 buckets of 10: a query aligned to bucket
	// boundaries is exact.
	vals := make([]int64, 100)
	for i := range vals {
		vals[i] = int64(i)
	}
	h := NewValueHistogram(vals, 10)
	if h.NumBuckets() != 10 {
		t.Fatalf("NumBuckets = %d", h.NumBuckets())
	}
	if got := h.Selectivity(0, 9); !almostEq(got, 0.1) {
		t.Fatalf("Selectivity(0..9) = %v", got)
	}
	if got := h.Selectivity(20, 59); !almostEq(got, 0.4) {
		t.Fatalf("Selectivity(20..59) = %v", got)
	}
}

func TestValueHistogramDuplicatesDontStraddle(t *testing.T) {
	// Many duplicates of one value; ensure a range covering just that value
	// captures all its mass even with small budgets.
	var vals []int64
	for i := 0; i < 50; i++ {
		vals = append(vals, 7)
	}
	for i := 0; i < 50; i++ {
		vals = append(vals, int64(100+i))
	}
	h := NewValueHistogram(vals, 5)
	got := h.Selectivity(7, 7)
	if math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("Selectivity(7,7) = %v, want 0.5", got)
	}
}

func TestValueHistogramAccuracyProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 500
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(rng.Intn(1000))
		}
		h := NewValueHistogram(vals, 20)
		// Random range query: estimate within 10 percentage points of
		// truth for a 20-bucket equi-depth histogram over ~uniform data.
		lo := int64(rng.Intn(900))
		hi := lo + int64(rng.Intn(100)) + 1
		truth := 0
		for _, v := range vals {
			if v >= lo && v <= hi {
				truth++
			}
		}
		got := h.Selectivity(lo, hi)
		return math.Abs(got-float64(truth)/float64(n)) < 0.10
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestValueHistogramQuantile(t *testing.T) {
	vals := make([]int64, 100)
	for i := range vals {
		vals[i] = int64(i)
	}
	h := NewValueHistogram(vals, 10)
	q10 := h.Quantile(0.1)
	if q10 < 5 || q10 > 15 {
		t.Fatalf("Quantile(0.1) = %d", q10)
	}
	q100 := h.Quantile(1)
	if q100 != 99 {
		t.Fatalf("Quantile(1) = %d", q100)
	}
	if NewValueHistogram(nil, 4).Quantile(0.5) != 0 {
		t.Fatal("empty quantile")
	}
}

// TestQuantileZeroCountBucket is the divguard regression for Quantile: a
// zero-count bucket (possible only in a hand-built or corrupt histogram)
// previously divided 0/0 into the interpolation; now it is skipped.
func TestQuantileZeroCountBucket(t *testing.T) {
	h := &ValueHistogram{
		total: 4,
		buckets: []vbucket{
			{lo: 0, hi: 9, count: 0},
			{lo: 10, hi: 19, count: 4},
		},
	}
	got := h.Quantile(0.5)
	if got < 10 || got > 19 {
		t.Fatalf("Quantile(0.5) = %d, want within the populated bucket", got)
	}
}

// TestSelectivityOverflowedSpan pins the span clamp: a bucket spanning the
// full int64 range overflows b.hi-b.lo, and the partial-overlap
// interpolation must stay finite instead of dividing by a zero or negative
// span.
func TestSelectivityOverflowedSpan(t *testing.T) {
	h := &ValueHistogram{
		total:   2,
		buckets: []vbucket{{lo: math.MinInt64, hi: math.MaxInt64, count: 2}},
	}
	got := h.Selectivity(0, 100)
	if math.IsNaN(got) || math.IsInf(got, 0) || got < 0 || got > 1 {
		t.Fatalf("Selectivity over overflowed span = %v, want a finite fraction", got)
	}
}

// TestSparsePackedKeysMatchReference feeds random points whose
// coordinates grow (widening the packed fields), exceed 64 packed bits or
// go negative (switching to byte-string keys) and compares the result
// with a plain map, Float64bits.
func TestSparsePackedKeysMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		dims := rng.Intn(7)
		limit := int32(1) << uint(rng.Intn(31))
		s := NewSparse(dims)
		ref := map[[6]int32]float64{}
		total := 0.0
		for i := 0; i < 300; i++ {
			var key [6]int32
			coords := make([]int32, dims)
			for d := range coords {
				coords[d] = rng.Int31n(limit)
				if rng.Intn(50) == 0 {
					coords[d] = -coords[d] - 1
				}
				if rng.Intn(3) == 0 {
					coords[d] = 0
				}
				key[d] = coords[d]
			}
			w := float64(1 + rng.Intn(3))
			s.Add(coords, w)
			ref[key] += w
			total += w
		}
		if s.Len() != len(ref) || s.Total() != total {
			t.Fatalf("trial %d: Len %d Total %v, reference %d %v", trial, s.Len(), s.Total(), len(ref), total)
		}
		for _, p := range s.Points() {
			var key [6]int32
			copy(key[:], p.Coords)
			if math.Float64bits(p.Freq) != math.Float64bits(ref[key]) {
				t.Fatalf("trial %d: point %v freq %v, reference %v", trial, p.Coords, p.Freq, ref[key])
			}
		}
	}
}
