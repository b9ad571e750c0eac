package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the repeat runner reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// repeatRun is one subprocess run's parsed result line.
type repeatRun struct {
	workload string
	seed     int64
	res      result
}

// repeat runs every workload of BENCHMARK.json rounds times, interleaved
// (round r runs each workload once, seed seedBase+r, rotating which
// workload goes first), each run in a fresh process of its own.
// It then prints, per workload and end-to-end metric, the median and
// quartiles and the quartile spread against the metric's bound. The exit
// status is non-zero when a run fails or a spread (setup_s excepted)
// exceeds its bound.
func repeat(rounds int, seedBase int64, seconds int, stderr io.Writer) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "servebench: repeat must run from the checkout root:", err)
		return 2
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintln(stderr, "servebench: BENCHMARK.json:", err)
		return 2
	}
	if seconds <= 0 {
		seconds = bf.RunSeconds
	}
	var workloads []string
	for _, w := range bf.Workloads {
		workloads = append(workloads, w.Name)
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 2
	}
	var runs []repeatRun
	for r := 0; r < rounds; r++ {
		seed := seedBase + int64(r)
		for i := range workloads {
			w := workloads[(i+r)%len(workloads)]
			res, err := runOnce(self, w, seed, seconds)
			if err != nil {
				fmt.Fprintf(stderr, "round %d %s seed %d: %v\n", r+1, w, seed, err)
				return 1
			}
			fmt.Fprintf(stderr, "round %d %-12s seed %-4d attempted %-8d failed %d\n", r+1, w, seed, res.Attempted, res.Failed)
			runs = append(runs, repeatRun{workload: w, seed: seed, res: res})
		}
	}
	status := 0
	fmt.Fprintf(stderr, "\n%d rounds, %ds windows\n", rounds, seconds)
	fmt.Fprintf(stderr, "%-12s %-20s %14s %14s %14s %8s %6s  %s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound", "verdict")
	for _, w := range workloads {
		for _, m := range bf.EndToEnd {
			var vals []float64
			for _, run := range runs {
				if run.workload == w {
					vals = append(vals, run.res.Metrics[m.Name].Value)
				}
			}
			q1, q2, q3, ok := quartiles(vals)
			if !ok {
				continue
			}
			sp := spread(vals)
			verdict := verdictFor(sp, m.Bound)
			if m.Name != "setup_s" && !(sp <= m.Bound) {
				status = 1
			}
			fmt.Fprintf(stderr, "%-12s %-20s %14.6g %14.6g %14.6g %7.1f%% %5.0f%%  %s\n",
				w, m.Name, q1, q2, q3, 100*sp, 100*m.Bound, verdict)
		}
	}
	return status
}

// verdictFor reads a spread against its bound: steady below a third of
// it, within up to the bound, wide beyond.
func verdictFor(spread, bound float64) string {
	switch {
	case math.IsNaN(spread):
		return "n/a"
	case spread <= bound/3:
		return "steady"
	case spread <= bound:
		return "within bound"
	default:
		return "WIDE"
	}
}

// runOnce runs the benchmark binary once and parses its last output line.
func runOnce(self, workload string, seed int64, seconds int) (result, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("%v: %s", err, lastLine(errb.String()))
	}
	var res result
	if err := json.Unmarshal([]byte(lastLine(out.String())), &res); err != nil {
		return result{}, fmt.Errorf("result line: %w", err)
	}
	if !res.Correct {
		return res, fmt.Errorf("run reported incorrect estimates")
	}
	return res, nil
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return lines[len(lines)-1]
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
