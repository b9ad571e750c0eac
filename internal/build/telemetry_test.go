package build

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"xsketch/internal/obs"
	"xsketch/internal/xmlgen"
	core "xsketch/internal/xsketch"
)

// collectSink records every event for assertions.
type collectSink struct{ events []Event }

func (c *collectSink) Emit(ev Event) { c.events = append(c.events, ev) }

func telemetryOpts() Options {
	opts := DefaultOptions(1 << 30)
	opts.Seed = 3
	opts.MaxSteps = 8
	return opts
}

func TestSinkReceivesOneEventPerStep(t *testing.T) {
	doc := xmlgen.IMDB(xmlgen.Config{Seed: 7, Scale: 0.02})
	sink := &collectSink{}
	opts := telemetryOpts()
	opts.Sink = sink
	b := NewBuilder(doc, opts)
	b.Run()

	steps := b.Steps()
	if len(sink.events) != len(steps) {
		t.Fatalf("%d events for %d adopted steps", len(sink.events), len(steps))
	}
	prevSize := core.New(doc, opts.Sketch).SizeBytes()
	for i, ev := range sink.events {
		s := steps[i]
		if ev.Step != i+1 {
			t.Errorf("event %d: step %d, want %d", i, ev.Step, i+1)
		}
		if ev.Op != s.Refinement.Op.String() || ev.Refinement != s.Refinement.String() {
			t.Errorf("event %d: op/refinement %q/%q != adopted %q", i, ev.Op, ev.Refinement, s.Refinement)
		}
		if ev.Target != int(s.Refinement.target()) {
			t.Errorf("event %d: target %d, want %d", i, ev.Target, s.Refinement.target())
		}
		if ev.SizeBytes != s.SizeBytes || ev.Error != s.Error {
			t.Errorf("event %d: size/error %d/%v != step %d/%v", i, ev.SizeBytes, ev.Error, s.SizeBytes, s.Error)
		}
		if ev.SpaceDelta != s.SizeBytes-prevSize {
			t.Errorf("event %d: space delta %d, want %d", i, ev.SpaceDelta, s.SizeBytes-prevSize)
		}
		prevSize = s.SizeBytes
		if ev.GainPerByte <= 0 {
			t.Errorf("event %d: gain per byte %v, want > 0 under marginal-gains selection", i, ev.GainPerByte)
		}
		if ev.CandidatesScored <= 0 {
			t.Errorf("event %d: candidates scored %d", i, ev.CandidatesScored)
		}
		if ev.ElapsedSeconds < 0 {
			t.Errorf("event %d: negative elapsed %v", i, ev.ElapsedSeconds)
		}
	}
}

// TestSinkDoesNotChangeBuild pins telemetry's observational contract: the
// built synopsis is byte-identical, over the same element partition, with
// and without a sink.
func TestSinkDoesNotChangeBuild(t *testing.T) {
	doc := xmlgen.IMDB(xmlgen.Config{Seed: 7, Scale: 0.02})
	buildWith := func(sink Sink) builtState {
		opts := telemetryOpts()
		opts.Sink = sink
		return stateOf(t, XBuild(doc, opts))
	}
	plain := buildWith(nil)
	traced := buildWith(&collectSink{})
	if !plain.equal(traced) {
		t.Fatal("sink changed the built synopsis")
	}
}

func TestJSONLSinkStreamsSnakeCase(t *testing.T) {
	doc := xmlgen.IMDB(xmlgen.Config{Seed: 7, Scale: 0.02})
	var buf bytes.Buffer
	opts := telemetryOpts()
	opts.Sink = NewJSONLSink(&buf)
	b := NewBuilder(doc, opts)
	b.Run()

	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		lines++
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %d not JSON: %v\n%s", lines, err, sc.Text())
		}
		for _, key := range []string{
			"step", "op", "target", "refinement", "gain_per_byte",
			"error", "size_bytes", "space_delta", "candidates_scored",
			"elapsed_seconds",
		} {
			if _, ok := m[key]; !ok {
				t.Errorf("line %d missing key %q", lines, key)
			}
		}
	}
	if lines != len(b.Steps()) {
		t.Fatalf("%d JSONL lines for %d steps", lines, len(b.Steps()))
	}
	if lines == 0 {
		t.Fatal("no refinements adopted; test exercises nothing")
	}
}

func TestObsSinkAndMultiSink(t *testing.T) {
	doc := xmlgen.IMDB(xmlgen.Config{Seed: 7, Scale: 0.02})
	reg := obs.NewRegistry()
	collect := &collectSink{}
	opts := telemetryOpts()
	opts.Sink = MultiSink{NewObsSink(reg), collect}
	b := NewBuilder(doc, opts)
	b.Run()
	if len(collect.events) == 0 {
		t.Fatal("MultiSink did not forward to the collecting member")
	}

	var out bytes.Buffer
	reg.WriteTo(&out)
	text := out.String()
	for _, family := range []string{
		"xbuild_steps_total", "xbuild_candidates_scored_total",
		"xbuild_synopsis_size_bytes", "xbuild_scoring_error",
		"xbuild_step_latency_seconds",
	} {
		if !strings.Contains(text, "# TYPE "+family+" ") {
			t.Errorf("registry missing family %s:\n%s", family, text)
		}
	}
	last := collect.events[len(collect.events)-1]
	if !strings.Contains(text, "xbuild_synopsis_size_bytes "+strconv.Itoa(last.SizeBytes)) {
		t.Errorf("size gauge does not reflect last step (%d):\n%s", last.SizeBytes, text)
	}
	if !strings.Contains(text, "xbuild_step_latency_seconds_count "+strconv.Itoa(len(collect.events))) {
		t.Errorf("latency histogram count != %d steps:\n%s", len(collect.events), text)
	}
}

func TestRandomSelectionEmitsZeroGain(t *testing.T) {
	doc := xmlgen.IMDB(xmlgen.Config{Seed: 7, Scale: 0.02})
	sink := &collectSink{}
	opts := telemetryOpts()
	opts.MaxSteps = 3
	opts.RandomSelection = true
	opts.Sink = sink
	NewBuilder(doc, opts).Run()
	if len(sink.events) == 0 {
		t.Fatal("no events under RandomSelection")
	}
	for i, ev := range sink.events {
		if ev.GainPerByte != 0 {
			t.Errorf("event %d: gain %v, want 0 (random selection computes no gains)", i, ev.GainPerByte)
		}
	}
}
