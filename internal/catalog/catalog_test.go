package catalog

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xsketch/internal/build"
	"xsketch/internal/cli"
	"xsketch/internal/graphsyn"
	"xsketch/internal/twig"
	"xsketch/internal/workload"
	"xsketch/internal/xmltree"
	"xsketch/internal/xsketch"
)

// buildFixture builds a refined sketch over a generated dataset plus a
// workload of queries to compare estimates on.
func buildFixture(t *testing.T, dataset string, scale float64, budget int, wavelets bool) (*xsketch.Sketch, []*twig.Query) {
	t.Helper()
	doc, err := cli.LoadDoc("", dataset, scale, 1)
	if err != nil {
		t.Fatalf("load %s: %v", dataset, err)
	}
	opts := build.DefaultOptions(budget)
	opts.MaxSteps = 40
	opts.Sketch.WaveletValues = wavelets
	b := build.NewBuilder(doc, opts)
	b.Run()
	sk := b.Sketch()
	if err := sk.Validate(); err != nil {
		t.Fatalf("built sketch invalid: %v", err)
	}
	cfg := workload.DefaultConfig(workload.KindPV)
	cfg.NumQueries = 60
	cfg.Seed = 7
	wl := workload.Generate(doc, cfg)
	queries := make([]*twig.Query, len(wl.Queries))
	for i := range wl.Queries {
		queries[i] = wl.Queries[i].Twig
	}
	return sk, queries
}

// TestRoundTripBitIdentity is the acceptance check of the standalone
// format: a decoded sketch — detached, no document — must produce
// Float64bits-identical estimates to the original on every workload query,
// through both the interpreter and the compiled-plan path.
func TestRoundTripBitIdentity(t *testing.T) {
	cases := []struct {
		dataset  string
		scale    float64
		budget   int
		wavelets bool
	}{
		{"xmark", 0.02, 16 * 1024, false},
		{"imdb", 0.02, 16 * 1024, true},
	}
	for _, tc := range cases {
		t.Run(tc.dataset, func(t *testing.T) {
			sk, queries := buildFixture(t, tc.dataset, tc.scale, tc.budget, tc.wavelets)
			buf, err := EncodeBytes(sk)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			got, info, err := Decode(bytes.NewReader(buf))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !got.Detached() {
				t.Fatalf("decoded sketch is not detached")
			}
			if info.Nodes != sk.Syn.NumNodes() || info.Edges != sk.Syn.NumEdges() {
				t.Fatalf("info reports %d nodes / %d edges, sketch has %d / %d",
					info.Nodes, info.Edges, sk.Syn.NumNodes(), sk.Syn.NumEdges())
			}
			if info.ModelBytes != int64(sk.SizeBytes()) || got.SizeBytes() != sk.SizeBytes() {
				t.Fatalf("size model bytes diverge: info %d, decoded %d, original %d",
					info.ModelBytes, got.SizeBytes(), sk.SizeBytes())
			}
			for i, q := range queries {
				want := sk.EstimateQuery(q)
				have := got.EstimateQuery(q)
				if math.Float64bits(want) != math.Float64bits(have) {
					t.Fatalf("query %d: original %v (%x), decoded %v (%x)",
						i, want, math.Float64bits(want), have, math.Float64bits(have))
				}
				p, err := got.PlanQueryText(q.String())
				if err != nil {
					t.Fatalf("query %d: plan: %v", i, err)
				}
				planned, err := got.EstimatePlanContext(context.Background(), p)
				if err != nil {
					t.Fatalf("query %d: planned estimate: %v", i, err)
				}
				if math.Float64bits(want) != math.Float64bits(planned.Estimate) {
					t.Fatalf("query %d: planned estimate %v diverges from %v", i, planned.Estimate, want)
				}
			}
		})
	}
}

// TestRoundTripHandRefined pins the codec on a small sketch that carries
// each kind of refinement by hand — a B-stabilize split, an expanded
// scope edge, a non-default bucket budget and a value dimension — so every
// summary field is round-tripped whatever XBUILD happens to choose.
func TestRoundTripHandRefined(t *testing.T) {
	d := xmltree.Bibliography()
	cfg := xsketch.DefaultConfig()
	cfg.InitialEdgeBuckets = 64
	cfg.InitialValueBuckets = 64
	sk := xsketch.New(d, cfg)
	node := func(tag string) graphsyn.NodeID {
		t.Helper()
		id, ok := d.LookupTag(tag)
		if !ok {
			t.Fatalf("unknown tag %q", tag)
		}
		return sk.Syn.NodesByTag(id)[0]
	}
	paper, author, year, title := node("paper"), node("author"), node("year"), node("title")
	if _, ok := sk.Syn.BStabilize(paper, title); !ok {
		t.Fatal("split failed")
	}
	sk.RebuildAll()
	if !sk.AddScopeEdge(paper, xsketch.ScopeEdge{From: author, To: paper}) {
		t.Fatal("AddScopeEdge rejected author->paper")
	}
	if !sk.SetBuckets(paper, 32) {
		t.Fatal("SetBuckets failed")
	}
	if !sk.AddValueDim(paper, year, 4) {
		t.Fatal("AddValueDim failed")
	}
	if err := sk.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}

	buf, err := EncodeBytes(sk)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, _, err := Decode(bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.SizeBytes() != sk.SizeBytes() || got.Syn.NumNodes() != sk.Syn.NumNodes() {
		t.Fatalf("decoded %d bytes / %d nodes, original %d / %d",
			got.SizeBytes(), got.Syn.NumNodes(), sk.SizeBytes(), sk.Syn.NumNodes())
	}
	for _, src := range []string{
		"t0 in author, t1 in t0/name, t2 in t0/paper[year>2000], t3 in t2/title, t4 in t2/keyword",
		"t0 in //title",
		"t0 in author[book], t1 in t0/paper, t2 in t1/keyword",
	} {
		q := twig.MustParse(src)
		want, have := sk.EstimateQuery(q), got.EstimateQuery(q)
		if math.Float64bits(want) != math.Float64bits(have) {
			t.Fatalf("%s: original %v, decoded %v", src, want, have)
		}
	}
}

// TestEncodeDeterministic: equal sketches encode to equal bytes, and a
// decoded sketch re-encodes to the very same file.
func TestEncodeDeterministic(t *testing.T) {
	sk, _ := buildFixture(t, "xmark", 0.01, 8*1024, false)
	a, err := EncodeBytes(sk)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	b, err := EncodeBytes(sk)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("two encodings of the same sketch differ")
	}
	dec, _, err := Decode(bytes.NewReader(a))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	c, err := EncodeBytes(dec)
	if err != nil {
		t.Fatalf("encode decoded: %v", err)
	}
	if !bytes.Equal(a, c) {
		t.Fatalf("decoded sketch re-encodes to different bytes")
	}
}

// TestWriteScanOpen exercises the directory layer end to end.
func TestWriteScanOpen(t *testing.T) {
	sk, queries := buildFixture(t, "xmark", 0.01, 8*1024, false)
	dir := filepath.Join(t.TempDir(), "catalog")
	path, err := Write(dir, "xmark", sk)
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if filepath.Dir(path) != dir || filepath.Base(path) != "xmark"+Ext {
		t.Fatalf("unexpected written path %s", path)
	}

	infos, err := Scan(dir)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(infos) != 1 || infos[0].Name != "xmark" || infos[0].Err != nil {
		t.Fatalf("scan returned %+v", infos)
	}
	if infos[0].Nodes != sk.Syn.NumNodes() || infos[0].ModelBytes != int64(sk.SizeBytes()) {
		t.Fatalf("scan info %+v disagrees with sketch", infos[0])
	}

	got, info, err := OpenByName(dir, "xmark")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if info.Name != "xmark" || info.Path != path {
		t.Fatalf("open info %+v", info)
	}
	for i, q := range queries {
		if math.Float64bits(sk.EstimateQuery(q)) != math.Float64bits(got.EstimateQuery(q)) {
			t.Fatalf("query %d estimate diverges after Write/Open", i)
		}
	}

	for _, bad := range []string{"", ".", "..", "a/b", `a\b`} {
		if _, err := Write(dir, bad, sk); err == nil {
			t.Fatalf("Write accepted invalid name %q", bad)
		}
		if _, _, err := OpenByName(dir, bad); err == nil {
			t.Fatalf("OpenByName accepted invalid name %q", bad)
		}
	}
}

// TestScanReportsCorruptEntries: a scan over a directory holding a corrupt
// entry surfaces it with Err set instead of failing the whole scan.
func TestScanReportsCorruptEntries(t *testing.T) {
	sk, _ := buildFixture(t, "xmark", 0.01, 8*1024, false)
	dir := t.TempDir()
	if _, err := Write(dir, "good", sk); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bad"+Ext), []byte("not a sketch"), 0o644); err != nil {
		t.Fatalf("write bad entry: %v", err)
	}
	infos, err := Scan(dir)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(infos) != 2 {
		t.Fatalf("scan returned %d entries, want 2", len(infos))
	}
	if infos[0].Name != "bad" || infos[0].Err == nil {
		t.Fatalf("corrupt entry not reported: %+v", infos[0])
	}
	if infos[1].Name != "good" || infos[1].Err != nil {
		t.Fatalf("good entry misreported: %+v", infos[1])
	}
}

// rechecksum recomputes the header checksum after a test mutated the
// payload, so the mutation reaches the structural validators instead of
// tripping the checksum gate.
func rechecksum(buf []byte) {
	binary.LittleEndian.PutUint32(buf[20:24], crc32.ChecksumIEEE(buf[headerSize:]))
}

// TestDecodeFailureModes drives the documented load failure modes:
// truncation, checksum mismatch, unsupported version, bad magic, and
// structural corruption all yield wrapped sentinel errors — never a panic,
// never a sketch.
func TestDecodeFailureModes(t *testing.T) {
	sk, _ := buildFixture(t, "xmark", 0.01, 8*1024, false)
	buf, err := EncodeBytes(sk)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}

	check := func(t *testing.T, data []byte, want error) {
		t.Helper()
		got, _, err := Decode(bytes.NewReader(data))
		if err == nil {
			t.Fatalf("decode of corrupted input succeeded")
		}
		if got != nil {
			t.Fatalf("decode returned a sketch alongside error %v", err)
		}
		if want != nil && !errors.Is(err, want) {
			t.Fatalf("error %v does not wrap %v", err, want)
		}
	}

	t.Run("truncated-header", func(t *testing.T) { check(t, buf[:headerSize-3], ErrTruncated) })
	t.Run("header-cut-to-20-bytes", func(t *testing.T) { check(t, buf[:20], ErrTruncated) })
	t.Run("short-non-catalog", func(t *testing.T) { check(t, []byte("not a synopsis\n"), ErrMagic) })
	t.Run("truncated-payload", func(t *testing.T) { check(t, buf[:len(buf)-5], ErrTruncated) })
	t.Run("bad-magic", func(t *testing.T) {
		c := bytes.Clone(buf)
		c[0] ^= 0xff
		check(t, c, ErrMagic)
	})
	t.Run("unsupported-version", func(t *testing.T) {
		c := bytes.Clone(buf)
		binary.LittleEndian.PutUint32(c[4:8], FormatVersion+1)
		check(t, c, ErrVersion)
	})
	t.Run("flipped-payload-byte", func(t *testing.T) {
		c := bytes.Clone(buf)
		c[headerSize+40] ^= 0x01
		check(t, c, ErrChecksum)
	})
	t.Run("implausible-node-count", func(t *testing.T) {
		c := bytes.Clone(buf)
		binary.LittleEndian.PutUint32(c[headerSize:], 1<<30)
		rechecksum(c)
		check(t, c, ErrCorrupt)
	})
	t.Run("tag-table-node-mismatch", func(t *testing.T) {
		// Shrink the tag table so node tags point past it: FromDetached's
		// cross-check must reject the mismatch.
		c := bytes.Clone(buf)
		binary.LittleEndian.PutUint32(c[headerSize+8:], 1)
		rechecksum(c)
		check(t, c, ErrCorrupt)
	})
	t.Run("trailing-bytes", func(t *testing.T) {
		c := bytes.Clone(buf)
		c = append(c, 0)
		binary.LittleEndian.PutUint64(c[12:20], uint64(len(c)-headerSize))
		rechecksum(c)
		check(t, c, ErrCorrupt)
	})

	// Exhaustive truncation sweep: every prefix must fail cleanly. This is
	// the no-panic guarantee for arbitrarily cut files.
	t.Run("every-prefix", func(t *testing.T) {
		step := 1
		if len(buf) > 4096 {
			step = len(buf) / 4096
		}
		for i := 0; i < len(buf); i += step {
			// Re-stamp the payload length so the cut lands inside the
			// structural decoders, not just the up-front length check.
			c := bytes.Clone(buf[:i])
			if i >= headerSize {
				binary.LittleEndian.PutUint64(c[12:20], uint64(i-headerSize))
				rechecksum(c)
			}
			if sk, _, err := Decode(bytes.NewReader(c)); err == nil || sk != nil {
				t.Fatalf("prefix of %d bytes decoded without error", i)
			}
		}
	})
}

// TestOpenRejectsNonCatalogFile: Open is the only loader for a synopsis
// file, so anything that is not a catalog file must fail with ErrMagic
// rather than decode into a sketch, while a real catalog file opens.
func TestOpenRejectsNonCatalogFile(t *testing.T) {
	sk, _ := buildFixture(t, "xmark", 0.01, 8*1024, false)
	dir := t.TempDir()
	path, err := Write(dir, "s", sk)
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, _, err := Open(path); err != nil {
		t.Fatalf("Open(catalog file): %v", err)
	}
	other := filepath.Join(dir, "other.bin")
	junk := bytes.Repeat([]byte("not a catalog file\n"), 8)
	if err := os.WriteFile(other, junk, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	if got, _, err := Open(other); !errors.Is(err, ErrMagic) || got != nil {
		t.Fatalf("Open(non-catalog file) = %v, %v; want ErrMagic", got, err)
	}
	// A file shorter than the header is judged by the bytes it has, and
	// the message names the package once.
	short := filepath.Join(dir, "short.bin")
	if err := os.WriteFile(short, []byte("not a synopsis\n"), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	_, _, err = Open(short)
	if !errors.Is(err, ErrMagic) || strings.Count(err.Error(), "catalog:") != 1 {
		t.Fatalf("Open(15-byte text file) = %v; want ErrMagic with one \"catalog:\"", err)
	}
	if _, err := ReadInfo(short); !errors.Is(err, ErrMagic) {
		t.Fatalf("ReadInfo(15-byte text file) = %v; want ErrMagic", err)
	}
}
