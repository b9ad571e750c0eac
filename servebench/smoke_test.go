package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// benchmarkMetrics reads the metric names BENCHMARK.json promises.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("BENCHMARK.json not beside this directory: %v", err)
	}
	var bf struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	for _, m := range bf.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range bf.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// smokeRun runs a short window of one workload in process, with a single
// set-up and a short warm-up.
func smokeRun(t *testing.T, workload string, seed int64, trace bool) *result {
	t.Helper()
	var stderr bytes.Buffer
	o := options{workload: workload, seed: seed, seconds: 3, trace: trace, setups: 1,
		warmup: 200 * time.Millisecond, spanDir: t.TempDir()}
	res, err := bench(o, &stderr)
	if err != nil {
		t.Fatalf("%s seed %d (trace %v): %v\n%s", workload, seed, trace, err, stderr.String())
	}
	checkCounts(t, workload, seed, res, stderr.String())
	return res
}

func checkCounts(t *testing.T, workload string, seed int64, res *result, log string) {
	t.Helper()
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("%s seed %d: correct=%v attempted=%d failed=%d\n%s", workload, seed, res.Correct, res.Attempted, res.Failed, log)
	}
}

// TestSmoke runs every workload briefly: untraced on a second seed, so
// the benchmark is not tuned to one query set, and traced on the first.
// Each run must answer every request correctly and report every metric
// BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds synopses and serves load for several seconds per workload")
	}
	endToEnd, perLayer := benchmarkMetrics(t)
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			res := smokeRun(t, sp.name, 2, false)
			for _, name := range endToEnd {
				m, ok := res.Metrics[name]
				if !ok || !(m.Value > 0) {
					t.Errorf("end-to-end metric %s = %+v, want a positive value", name, m)
				}
			}
			traced := smokeRun(t, sp.name, 1, true)
			for _, name := range perLayer {
				if _, ok := traced.Metrics[name]; !ok {
					t.Errorf("per-layer metric %s missing", name)
				}
			}
			// A no-op round trip plus the handler, each timed on its own,
			// must account for the served round trip.
			if traced.coverage < 0.8 || traced.coverage > 1.2 {
				t.Errorf("no-op round trip plus handler is %.0f%% of the served round trip", 100*traced.coverage)
			}
			// The samples must cover every request of the cycle, so every
			// served text and sketch name.
			if traced.unsampled != 0 {
				t.Errorf("%d requests of the cycle never sampled", traced.unsampled)
			}
		})
	}
}

// TestAccuracyIsDeterministic checks that avg_rel_error depends on the
// seed alone.
func TestAccuracyIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("serves load for several seconds")
	}
	a := smokeRun(t, "point-hot", 5, false).Metrics["avg_rel_error"].Value
	b := smokeRun(t, "point-hot", 5, false).Metrics["avg_rel_error"].Value
	if a != b {
		t.Errorf("avg_rel_error differs across runs of one seed: %v vs %v", a, b)
	}
}

func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "point-hot", "--seconds", "0"},
		{"--workload", "point-hot", "--trace", "2"},
		{"--bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || strings.TrimSpace(stdout.String()) != "" {
			t.Errorf("%v: exit %d, stdout %q; want a failure with no result line", args, code, stdout.String())
		}
	}
}
