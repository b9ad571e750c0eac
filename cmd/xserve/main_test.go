package main

import (
	"strings"
	"testing"
)

// TestParseSketchSpec covers the spec grammar, including the regression
// cases: paths containing commas (which a naive comma split tore apart)
// and out-of-range scale/budget/seed values (which used to be accepted
// silently and fail much later, inside the generator or XBUILD).
func TestParseSketchSpec(t *testing.T) {
	cases := []struct {
		name    string
		in      string
		want    sketchSpec
		wantErr string
	}{
		{
			name: "bare name is dataset shorthand",
			in:   "imdb",
			want: sketchSpec{name: "imdb", dataset: "imdb", scale: 0.05, seed: 1, budget: 16384},
		},
		{
			name: "dataset with options",
			in:   "m=dataset:imdb,scale=0.02,seed=7,budget=8192",
			want: sketchSpec{name: "m", dataset: "imdb", scale: 0.02, seed: 7, budget: 8192},
		},
		{
			name: "xml source",
			in:   "docs=xml:/data/docs.xml",
			want: sketchSpec{name: "docs", xmlPath: "/data/docs.xml", scale: 0.05, seed: 1, budget: 16384},
		},
		{
			name: "xml path containing commas",
			in:   "docs=xml:/data/a,b,c.xml,budget=4096",
			want: sketchSpec{name: "docs", xmlPath: "/data/a,b,c.xml", scale: 0.05, seed: 1, budget: 4096},
		},
		{
			name: "xml path with several commas and no options",
			in:   "docs=xml:/tmp/snap,v2,final.xml",
			want: sketchSpec{name: "docs", xmlPath: "/tmp/snap,v2,final.xml", scale: 0.05, seed: 1, budget: 16384},
		},
		{
			name: "comma before a known key still splits",
			in:   "docs=xml:/a,b.xml,seed=3",
			want: sketchSpec{name: "docs", xmlPath: "/a,b.xml", scale: 0.05, seed: 3, budget: 16384},
		},
		{
			name: "standalone synopsis source",
			in:   "m=synopsis:/var/sketches/imdb.xsb",
			want: sketchSpec{name: "m", standalone: "/var/sketches/imdb.xsb", scale: 0.05, seed: 1, budget: 16384},
		},
		{
			name: "standalone synopsis source with commas in path",
			in:   "m=synopsis:/var/a,b.xsb",
			want: sketchSpec{name: "m", standalone: "/var/a,b.xsb", scale: 0.05, seed: 1, budget: 16384},
		},
		{name: "empty name", in: "=dataset:imdb", wantErr: "empty name"},
		{name: "unknown source", in: "m=file:/x", wantErr: "source must be"},
		{name: "empty synopsis path", in: "m=synopsis:", wantErr: "empty synopsis path"},
		{name: "standalone rejects options", in: "m=synopsis:/a.xsb,budget=1", wantErr: "takes no options"},
		{name: "unknown option merges into dataset and is rejected", in: "m=dataset:imdb,depth=3", wantErr: "unknown option after the comma"},
		{name: "removed synopsis option is rejected", in: "m=dataset:imdb,synopsis=/a.xsb", wantErr: "unknown option after the comma"},
		{name: "synopsis option path containing commas", in: "m=dataset:imdb,synopsis=/tmp/snap,v2,final.sketch", wantErr: "unknown option after the comma"},
		{name: "malformed float", in: "m=dataset:imdb,scale=big", wantErr: "invalid syntax"},
		{name: "zero scale rejected", in: "m=dataset:imdb,scale=0", wantErr: "scale must be positive"},
		{name: "negative scale rejected", in: "m=dataset:imdb,scale=-0.5", wantErr: "scale must be positive"},
		{name: "zero budget rejected", in: "m=dataset:imdb,budget=0", wantErr: "budget must be positive"},
		{name: "negative budget rejected", in: "m=dataset:imdb,budget=-1", wantErr: "budget must be positive"},
		{name: "negative seed rejected", in: "m=dataset:imdb,seed=-4", wantErr: "seed must be non-negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseSketchSpec(tc.in)
			if tc.wantErr != "" {
				if err == nil {
					t.Fatalf("parseSketchSpec(%q) = %+v, want error containing %q", tc.in, got, tc.wantErr)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("parseSketchSpec(%q) error %q, want it to contain %q", tc.in, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseSketchSpec(%q): %v", tc.in, err)
			}
			if got != tc.want {
				t.Fatalf("parseSketchSpec(%q)\n got %+v\nwant %+v", tc.in, got, tc.want)
			}
		})
	}
}

func TestValidateRouterFlags(t *testing.T) {
	cases := []struct {
		name     string
		routerOn bool
		backends []string
		sketches int
		catalog  string
		wantErr  string
	}{
		{name: "replica mode, no router flags", routerOn: false},
		{name: "backend without router", backends: []string{"http://a"}, wantErr: "-backend requires -router"},
		{name: "router without backends", routerOn: true, wantErr: "at least one -backend"},
		{name: "router with one backend", routerOn: true, backends: []string{"http://a"}},
		{name: "router with several backends", routerOn: true, backends: []string{"http://a", "http://b"}},
		{name: "router rejects -sketch", routerOn: true, backends: []string{"http://a"}, sketches: 1, wantErr: "-sketch cannot be combined"},
		{name: "router rejects -catalog", routerOn: true, backends: []string{"http://a"}, catalog: "./sketches", wantErr: "-catalog cannot be combined"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateRouterFlags(tc.routerOn, tc.backends, tc.sketches, tc.catalog)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v, want it to contain %q", err, tc.wantErr)
			}
		})
	}
}

func TestValidateAuditFlags(t *testing.T) {
	set := func(names ...string) map[string]bool {
		m := make(map[string]bool)
		for _, n := range names {
			m[n] = true
		}
		return m
	}
	cases := []struct {
		name     string
		routerOn bool
		set      map[string]bool
		logPath  string
		rate     float64
		wantErr  string
	}{
		{name: "auditing off, nothing set", set: set(), rate: 0.01},
		{name: "auditing on with satellites", set: set("audit-log", "audit-rate", "audit-window"), logPath: "a.jsonl", rate: 0.5},
		{name: "rate 0 and 1 are valid", set: set("audit-log"), logPath: "a.jsonl", rate: 1},
		{name: "satellite without log", set: set("audit-rate"), rate: 0.5, wantErr: "-audit-rate requires -audit-log"},
		{name: "drift threshold without log", set: set("audit-drift-threshold"), rate: 0.01, wantErr: "-audit-drift-threshold requires -audit-log"},
		{name: "router rejects audit log", routerOn: true, set: set("audit-log"), logPath: "a.jsonl", rate: 0.01, wantErr: "-audit-log cannot be combined with -router"},
		{name: "router rejects satellites", routerOn: true, set: set("audit-queue"), rate: 0.01, wantErr: "-audit-queue cannot be combined with -router"},
		{name: "rate above one", set: set("audit-log"), logPath: "a.jsonl", rate: 1.5, wantErr: "must be in [0, 1]"},
		{name: "negative rate", set: set("audit-log"), logPath: "a.jsonl", rate: -0.1, wantErr: "must be in [0, 1]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateAuditFlags(tc.routerOn, tc.set, tc.logPath, tc.rate)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v, want it to contain %q", err, tc.wantErr)
			}
		})
	}
}

func TestBackendFlagsSet(t *testing.T) {
	var f backendFlags
	if err := f.Set("http://a"); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if err := f.Set("http://b"); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if err := f.Set(""); err == nil {
		t.Fatal("empty backend accepted")
	}
	if got := f.String(); got != "http://a,http://b" {
		t.Errorf("String() = %q", got)
	}
}
