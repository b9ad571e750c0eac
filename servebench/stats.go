package main

import (
	"bufio"
	"math"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"xsketch/internal/plan"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile: a p99 over fewer than 1000 samples rests on fewer than ten
// observations and is refused.
const minBeyond = 10

// nearestRank returns the nearest-rank q-quantile (0 <= q <= 1) of sorted,
// ascending samples: the smallest sample with at least q·n samples at or
// below it. It returns NaN for an empty slice.
func nearestRank(sorted []float64, q float64) float64 {
	v, _ := tailQuantile(sorted, q)
	return v
}

// tailQuantile is nearestRank plus the reporting rule for tail
// percentiles: ok is false unless at least minBeyond samples lie strictly
// beyond the returned rank.
func tailQuantile(sorted []float64, q float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), false
	}
	rank := min(max(int(math.Ceil(q*float64(n))), 1), n)
	return sorted[rank-1], n-rank >= minBeyond
}

// sortedCopy returns an ascending copy of xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the nearest-rank median of xs (NaN when empty).
func median(xs []float64) float64 { return nearestRank(sortedCopy(xs), 0.5) }

// quartiles returns the first quartile, median and third quartile of xs
// by the same rule as Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), so the repeat runner's spreads read the same as
// spreads computed in Python. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, false
	}
	d := sortedCopy(xs)
	m := n + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		out[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2], true
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3, ok := quartiles(xs)
	if !ok || q2 == 0 {
		return math.NaN()
	}
	return (q3 - q1) / math.Abs(q2)
}

// selfTime is a span's duration minus the durations of the calls it is
// known to contain. The benchmark cannot nest spans inside the handler,
// so the children are direct re-issues of the handler's inner calls; the
// result may dip below zero on a single noisy sample, which the medians
// taken over many samples absorb.
func selfTime(total float64, children ...float64) float64 {
	for _, c := range children {
		total -= c
	}
	return total
}

// cpuTime returns the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// perEstimateCPU is CPU microseconds per estimate over an interval.
func perEstimateCPU(before, after time.Duration, estimates int64) float64 {
	if estimates <= 0 {
		return math.NaN()
	}
	return float64(after-before) / float64(time.Microsecond) / float64(estimates)
}

// allocStats is the part of runtime.MemStats the benchmark accounts per
// estimate.
type allocStats struct {
	TotalAlloc uint64
	NumGC      uint32
}

// perEstimateAlloc returns KiB allocated per estimate and garbage
// collections per 1000 estimates between two samples.
func perEstimateAlloc(before, after allocStats, estimates int64) (kib, gcPer1k float64) {
	if estimates <= 0 {
		return math.NaN(), math.NaN()
	}
	n := float64(estimates)
	return float64(after.TotalAlloc-before.TotalAlloc) / 1024 / n,
		float64(after.NumGC-before.NumGC) * 1000 / n
}

// planTally accumulates plan-cache counter deltas across sketch
// generations: a hot swap retires one sketch (and its cache) and starts
// another, so a window's totals are the retired generations' final
// deltas plus the live generations' current ones.
type planTally struct {
	retired plan.Stats
	base    map[any]plan.Stats
}

func newPlanTally() *planTally { return &planTally{base: make(map[any]plan.Stats)} }

// track starts counting a generation from its current counters.
func (t *planTally) track(key any, now plan.Stats) { t.base[key] = now }

// retire folds a generation's final counters into the tally and stops
// tracking it.
func (t *planTally) retire(key any, final plan.Stats) {
	b, ok := t.base[key]
	if !ok {
		return
	}
	t.retired = addStats(t.retired, subStats(final, b))
	delete(t.base, key)
}

// total returns the tally with each live generation's current counters.
func (t *planTally) total(current func(key any) plan.Stats) plan.Stats {
	sum := t.retired
	for k, b := range t.base {
		sum = addStats(sum, subStats(current(k), b))
	}
	return sum
}

func subStats(a, b plan.Stats) plan.Stats {
	return plan.Stats{Hits: a.Hits - b.Hits, Misses: a.Misses - b.Misses, Evictions: a.Evictions - b.Evictions}
}

func addStats(a, b plan.Stats) plan.Stats {
	return plan.Stats{Hits: a.Hits + b.Hits, Misses: a.Misses + b.Misses, Evictions: a.Evictions + b.Evictions}
}

// hitRatio is hits over lookups (NaN with no lookups).
func hitRatio(s plan.Stats) float64 {
	if s.Hits+s.Misses == 0 {
		return math.NaN()
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// promSeries reads every sample of one metric family from Prometheus text
// exposition, keyed by its label set as written ("" when unlabelled).
func promSeries(text, family string) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, family) {
			continue
		}
		rest := line[len(family):]
		labels := ""
		switch {
		case strings.HasPrefix(rest, "{"):
			end := strings.Index(rest, "}")
			if end < 0 {
				continue
			}
			labels, rest = rest[1:end], rest[end+1:]
		case strings.HasPrefix(rest, " "):
		default:
			continue // a longer family name sharing the prefix
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			continue
		}
		out[labels] = v
	}
	return out
}

// seriesDelta subtracts two promSeries samples label by label.
func seriesDelta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// sumValues adds up a series map.
func sumValues(m map[string]float64) float64 {
	s := 0.0
	for _, v := range m {
		s += v
	}
	return s
}

// maxShare is the largest value's share of the total (NaN when the total
// is zero).
func maxShare(m map[string]float64) float64 {
	total, top := 0.0, 0.0
	for _, v := range m {
		total += v
		top = math.Max(top, v)
	}
	if total == 0 {
		return math.NaN()
	}
	return top / total
}
