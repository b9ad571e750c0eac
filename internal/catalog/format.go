package catalog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"xsketch/internal/graphsyn"
	"xsketch/internal/histogram"
	"xsketch/internal/xmltree"
	"xsketch/internal/xsketch"
)

// File layout (all fields little-endian, fixed width):
//
//	header (32 bytes)
//	  magic      [4]byte  "XSKB"
//	  version    uint32   FormatVersion
//	  flags      uint32   reserved, must be 0
//	  payloadLen uint64   bytes following the header
//	  checksum   uint32   CRC-32 (IEEE) of the payload
//	  reserved   [8]byte  must be 0
//	payload
//	  stats prologue (28 bytes: nodes u32, edges u32, tags u32,
//	    elements u64, modelBytes u64) — readable by Scan without
//	    decoding, checksummed like everything else by Open
//	  config block (fixed width, see appendConfig)
//	  tag table (per tag: u32 length + raw bytes, TagID order)
//	  root synopsis node (u32)
//	  node array (per node: tag u32, extent count u64, node ID order)
//	  edge array (per edge: from u32, to u32, child count u64,
//	    parent count u64; Synopsis.Edges order — ascending From, then To)
//	  summary array (one per node in ID order, see appendSummary)
//
// Floats (histogram frequencies, centroids, wavelet coefficients) travel
// as raw IEEE-754 bit patterns via the internal/histogram codec, so a
// decoded sketch's estimates are Float64bits-identical to the original's.

const (
	// FormatVersion is the version written into new files. Decoders accept
	// exactly this version; anything else fails with ErrVersion.
	FormatVersion = 1

	headerSize   = 32
	prologueSize = 28
	magic        = "XSKB"

	// maxPayload bounds the payload length a decoder will buffer. Real
	// synopses are kilobytes; anything near this bound is a corrupt header.
	maxPayload = 1 << 30
)

// Sentinel errors for the load failure modes, wrapped with context by the
// decoding functions; match with errors.Is.
var (
	ErrMagic     = fmt.Errorf("catalog: not a sketch catalog file (bad magic)")
	ErrVersion   = fmt.Errorf("catalog: unsupported format version")
	ErrChecksum  = fmt.Errorf("catalog: payload checksum mismatch")
	ErrTruncated = fmt.Errorf("catalog: truncated file")
	ErrCorrupt   = fmt.Errorf("catalog: corrupt payload")
)

// Info summarizes one catalog file. Scan fills it from the header and
// stats prologue alone; Decode fills it from the decoded payload.
type Info struct {
	// Name is the catalog name: the file's base name without the .xsb
	// extension. Filled by the directory layer (Scan, Open).
	Name string
	// Path is the file path the info was read from (directory layer).
	Path string
	// Version is the format version in the header.
	Version uint32
	// Nodes, Edges and Tags are the synopsis dimensions.
	Nodes, Edges, Tags int
	// Elements is the summed extent size over all nodes — the element
	// count of the summarized document.
	Elements int64
	// ModelBytes is the sketch's size under its own size model
	// (Sketch.SizeBytes at encode time).
	ModelBytes int64
	// FileBytes is the on-disk file size.
	FileBytes int64
	// Err records why the file was skipped during a Scan; nil for files
	// whose header and prologue read cleanly. The other fields are
	// meaningless when Err is non-nil (except Name and Path).
	Err error
}

// Fixed-width little-endian append helpers, matching the
// internal/histogram codec's field layout.

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendI64(b []byte, v int64) []byte  { return appendU64(b, uint64(v)) }
func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// Encode writes the sketch's standalone binary form to w.
func Encode(w io.Writer, sk *xsketch.Sketch) error {
	buf, err := EncodeBytes(sk)
	if err != nil {
		return err
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("catalog: write encoded sketch: %w", err)
	}
	return nil
}

// EncodeBytes returns the sketch's standalone binary form: header plus
// checksummed payload. Encoding is deterministic — equal sketches produce
// equal bytes — and works for detached sketches too, so a loaded catalog
// entry can be re-encoded bit-identically.
func EncodeBytes(sk *xsketch.Sketch) ([]byte, error) {
	if sk == nil || sk.Syn == nil {
		return nil, fmt.Errorf("catalog: cannot encode nil sketch")
	}
	payload, err := appendPayload(make([]byte, 0, 4096), sk)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, headerSize+len(payload))
	buf = append(buf, magic...)
	buf = appendU32(buf, FormatVersion)
	buf = appendU32(buf, 0) // flags
	buf = appendU64(buf, uint64(len(payload)))
	buf = appendU32(buf, crc32.ChecksumIEEE(payload))
	buf = append(buf, make([]byte, 8)...) // reserved
	return append(buf, payload...), nil
}

func appendPayload(buf []byte, sk *xsketch.Sketch) ([]byte, error) {
	syn := sk.Syn
	doc := syn.Doc
	tags := doc.Tags()
	nodes := syn.Nodes()
	edges := syn.Edges()

	var elements uint64
	for _, n := range nodes {
		elements += uint64(n.Count())
	}
	// Stats prologue.
	buf = appendU32(buf, uint32(len(nodes)))
	buf = appendU32(buf, uint32(len(edges)))
	buf = appendU32(buf, uint32(len(tags)))
	buf = appendU64(buf, elements)
	buf = appendU64(buf, uint64(sk.SizeBytes()))

	buf = appendConfig(buf, sk.Cfg)

	for _, t := range tags {
		buf = appendU32(buf, uint32(len(t)))
		buf = append(buf, t...)
	}

	buf = appendU32(buf, uint32(syn.NodeOf(doc.Root())))

	for _, n := range nodes {
		buf = appendU32(buf, uint32(n.Tag))
		buf = appendU64(buf, uint64(n.Count()))
	}
	for _, e := range edges {
		buf = appendU32(buf, uint32(e.From))
		buf = appendU32(buf, uint32(e.To))
		buf = appendU64(buf, uint64(e.ChildCount))
		buf = appendU64(buf, uint64(e.ParentCount))
	}

	for _, n := range nodes {
		s := sk.Summaries[n.ID]
		if s == nil {
			return nil, fmt.Errorf("catalog: node %d has no summary", n.ID)
		}
		var err error
		buf, err = appendSummary(buf, s)
		if err != nil {
			return nil, fmt.Errorf("catalog: node %d: %w", n.ID, err)
		}
	}
	return buf, nil
}

func appendConfig(buf []byte, cfg xsketch.Config) []byte {
	buf = appendI64(buf, int64(cfg.InitialEdgeBuckets))
	buf = appendI64(buf, int64(cfg.InitialValueBuckets))
	buf = appendBool(buf, cfg.WaveletValues)
	buf = appendBool(buf, cfg.StoreEdgeCounts)
	buf = appendI64(buf, int64(cfg.MaxDescendantPathLen))
	buf = appendI64(buf, int64(cfg.MaxEmbeddings))
	buf = append(buf, 0) // retired estimator-cache flag, kept for layout
	buf = appendI64(buf, int64(cfg.PlanCacheSize))
	buf = appendI64(buf, int64(cfg.SizeModel.NodeBytes))
	buf = appendI64(buf, int64(cfg.SizeModel.EdgeBytes))
	buf = appendI64(buf, int64(cfg.SizeModel.BucketDimBytes))
	buf = appendI64(buf, int64(cfg.SizeModel.BucketFreqBytes))
	return buf
}

func appendSummary(buf []byte, s *xsketch.NodeSummary) ([]byte, error) {
	buf = appendI64(buf, int64(s.Buckets))
	buf = appendI64(buf, int64(s.ValueBuckets))
	buf = appendU64(buf, uint64(s.ValuedCount))
	buf = appendScope(buf, s.Scope)
	buf = appendScope(buf, s.ExtraScope)
	buf = appendU32(buf, uint32(len(s.ValueDims)))
	for _, vd := range s.ValueDims {
		if len(vd.Los) != len(vd.Bounds) {
			return nil, fmt.Errorf("catalog: value dim has %d los for %d bounds", len(vd.Los), len(vd.Bounds))
		}
		buf = appendU32(buf, uint32(vd.Source))
		buf = appendI64(buf, vd.Lo)
		buf = appendU32(buf, uint32(len(vd.Bounds)))
		for _, b := range vd.Bounds {
			buf = appendI64(buf, b)
		}
		for _, lo := range vd.Los {
			buf = appendI64(buf, lo)
		}
	}
	if s.Hist == nil {
		buf = appendBool(buf, false)
	} else {
		buf = appendBool(buf, true)
		buf = s.Hist.AppendBinary(buf)
	}
	return histogram.AppendValueSummaryBinary(buf, s.VHist)
}

func appendScope(buf []byte, scope []xsketch.ScopeEdge) []byte {
	buf = appendU32(buf, uint32(len(scope)))
	for _, se := range scope {
		buf = appendU32(buf, uint32(se.From))
		buf = appendU32(buf, uint32(se.To))
	}
	return buf
}

// Decode reads one encoded sketch from r, verifying magic, version and
// checksum, and reconstructs it as a detached sketch: a stub document
// carrying the tag table, a graphsyn.FromDetached synopsis, and stored
// summaries assembled through xsketch.FromStored. No document is replayed;
// decode cost scales with synopsis size only. Corrupt input yields a
// wrapped sentinel error, never a panic.
func Decode(r io.Reader) (*xsketch.Sketch, Info, error) {
	var hdr [headerSize]byte
	if n, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, Info{}, shortHeader(hdr[:n], err)
	}
	version, payloadLen, sum, err := parseHeader(hdr[:])
	if err != nil {
		return nil, Info{}, err
	}
	// The buffer grows with the bytes actually read: a corrupt header may
	// claim up to maxPayload bytes, which must not be allocated up front.
	var buf bytes.Buffer
	buf.Grow(int(min(payloadLen, 1<<16)))
	n, err := buf.ReadFrom(io.LimitReader(r, int64(payloadLen)))
	if err != nil {
		return nil, Info{}, fmt.Errorf("%w: reading %d-byte payload: %v", ErrTruncated, payloadLen, err)
	}
	if uint64(n) != payloadLen {
		return nil, Info{}, fmt.Errorf("%w: payload has %d of %d bytes", ErrTruncated, n, payloadLen)
	}
	payload := buf.Bytes()
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, Info{}, fmt.Errorf("%w: computed %08x, header says %08x", ErrChecksum, got, sum)
	}
	sk, info, err := decodePayload(payload)
	if err != nil {
		return nil, Info{}, err
	}
	info.Version = version
	info.FileBytes = int64(headerSize + len(payload))
	return sk, info, nil
}

// shortHeader classifies a header read that stopped after the bytes in
// got: ErrMagic when they already differ from the magic (a short file
// that is not a catalog file at all), ErrTruncated otherwise.
func shortHeader(got []byte, err error) error {
	n := min(len(got), len(magic))
	if string(got[:n]) != magic[:n] {
		return ErrMagic
	}
	return fmt.Errorf("%w: reading header: %v", ErrTruncated, err)
}

// parseHeader validates a raw header and returns its version, payload
// length and checksum.
func parseHeader(hdr []byte) (version uint32, payloadLen uint64, sum uint32, err error) {
	r := histogram.NewByteReader(hdr)
	if string(r.Bytes(4, "magic")) != magic {
		return 0, 0, 0, ErrMagic
	}
	version = r.U32("version")
	r.U32("flags")
	payloadLen = r.U64("payload length")
	sum = r.U32("checksum")
	if err := r.Err(); err != nil {
		return 0, 0, 0, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	if version != FormatVersion {
		return 0, 0, 0, fmt.Errorf("%w: file has version %d, this build reads version %d", ErrVersion, version, FormatVersion)
	}
	if payloadLen < prologueSize {
		return 0, 0, 0, fmt.Errorf("%w: payload of %d bytes cannot hold the stats prologue", ErrCorrupt, payloadLen)
	}
	if payloadLen > maxPayload {
		return 0, 0, 0, fmt.Errorf("%w: implausible payload length %d", ErrCorrupt, payloadLen)
	}
	return version, payloadLen, sum, nil
}

func decodePayload(payload []byte) (*xsketch.Sketch, Info, error) {
	r := histogram.NewByteReader(payload)
	info, err := parsePrologue(r, len(payload)-prologueSize)
	if err != nil {
		return nil, Info{}, err
	}
	cfg := decodeConfig(r)
	if err := r.Err(); err != nil {
		return nil, Info{}, fmt.Errorf("%w: config block: %v", ErrCorrupt, err)
	}

	tags := make([]string, info.Tags)
	for i := range tags {
		n := r.Count(1, "tag length")
		tags[i] = string(r.Bytes(n, "tag bytes"))
	}
	root := graphsyn.NodeID(r.U32("root node"))
	if err := r.Err(); err != nil {
		return nil, Info{}, fmt.Errorf("%w: tag table: %v", ErrCorrupt, err)
	}

	nodeSpecs := make([]graphsyn.DetachedNodeSpec, info.Nodes)
	for i := range nodeSpecs {
		nodeSpecs[i] = graphsyn.DetachedNodeSpec{
			Tag:   xmltree.TagID(r.U32("node tag")),
			Count: int(r.U64("node count")),
		}
	}
	edgeSpecs := make([]graphsyn.DetachedEdgeSpec, info.Edges)
	for i := range edgeSpecs {
		edgeSpecs[i] = graphsyn.DetachedEdgeSpec{
			From:        graphsyn.NodeID(r.U32("edge from")),
			To:          graphsyn.NodeID(r.U32("edge to")),
			ChildCount:  int(r.U64("edge child count")),
			ParentCount: int(r.U64("edge parent count")),
		}
	}
	if err := r.Err(); err != nil {
		return nil, Info{}, fmt.Errorf("%w: node/edge arrays: %v", ErrCorrupt, err)
	}
	if root < 0 || int(root) >= len(nodeSpecs) {
		return nil, Info{}, fmt.Errorf("%w: root node %d outside %d nodes", ErrCorrupt, root, len(nodeSpecs))
	}

	doc, err := xmltree.NewStubDocument(tags, nodeSpecs[root].Tag)
	if err != nil {
		return nil, Info{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	syn, err := graphsyn.FromDetached(doc, root, nodeSpecs, edgeSpecs)
	if err != nil {
		return nil, Info{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}

	summaries := make(map[graphsyn.NodeID]*xsketch.NodeSummary, info.Nodes)
	for i := 0; i < info.Nodes; i++ {
		s, err := decodeSummary(r)
		if err != nil {
			return nil, Info{}, fmt.Errorf("%w: summary of node %d: %v", ErrCorrupt, i, err)
		}
		summaries[graphsyn.NodeID(i)] = s
	}
	if r.Len() != 0 {
		return nil, Info{}, fmt.Errorf("%w: %d trailing bytes after last summary", ErrCorrupt, r.Len())
	}

	sk, err := xsketch.FromStored(syn, summaries, cfg)
	if err != nil {
		return nil, Info{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return sk, info, nil
}

// parsePrologue reads the stats prologue into an Info. remaining is the
// number of payload bytes following the prologue, used to reject corrupt
// counts before they drive large allocations: every node needs at least
// its 12-byte array entry, every edge 24 bytes, every tag a 4-byte length.
func parsePrologue(r *histogram.ByteReader, remaining int) (Info, error) {
	info := Info{
		Nodes:    int(r.U32("node count")),
		Edges:    int(r.U32("edge count")),
		Tags:     int(r.U32("tag count")),
		Elements: int64(r.U64("element count")),
	}
	info.ModelBytes = int64(r.U64("model bytes"))
	if err := r.Err(); err != nil {
		return Info{}, fmt.Errorf("%w: stats prologue: %v", ErrCorrupt, err)
	}
	if info.Nodes <= 0 || info.Nodes > remaining/12 {
		return Info{}, fmt.Errorf("%w: implausible node count %d", ErrCorrupt, info.Nodes)
	}
	if info.Edges < 0 || info.Edges > remaining/24 {
		return Info{}, fmt.Errorf("%w: implausible edge count %d", ErrCorrupt, info.Edges)
	}
	if info.Tags <= 0 || info.Tags > remaining/4 {
		return Info{}, fmt.Errorf("%w: implausible tag count %d", ErrCorrupt, info.Tags)
	}
	return info, nil
}

func decodeConfig(r *histogram.ByteReader) xsketch.Config {
	var cfg xsketch.Config
	cfg.InitialEdgeBuckets = int(r.I64("config edge buckets"))
	cfg.InitialValueBuckets = int(r.I64("config value buckets"))
	cfg.WaveletValues = r.Byte("config wavelet flag") != 0
	cfg.StoreEdgeCounts = r.Byte("config edge-count flag") != 0
	cfg.MaxDescendantPathLen = int(r.I64("config descendant path bound"))
	cfg.MaxEmbeddings = int(r.I64("config embedding bound"))
	r.Byte("config cache flag") // retired; written as 0, ignored on read
	cfg.PlanCacheSize = int(r.I64("config plan cache size"))
	cfg.SizeModel.NodeBytes = int(r.I64("size-model node bytes"))
	cfg.SizeModel.EdgeBytes = int(r.I64("size-model edge bytes"))
	cfg.SizeModel.BucketDimBytes = int(r.I64("size-model bucket dim bytes"))
	cfg.SizeModel.BucketFreqBytes = int(r.I64("size-model bucket freq bytes"))
	return cfg
}

func decodeSummary(r *histogram.ByteReader) (*xsketch.NodeSummary, error) {
	s := &xsketch.NodeSummary{
		Buckets:      int(r.I64("summary buckets")),
		ValueBuckets: int(r.I64("summary value buckets")),
		ValuedCount:  int(r.U64("summary valued count")),
	}
	var err error
	//lint:allow sketchmutate decoding fills a fresh summary before any sketch (or cache) exists
	if s.Scope, err = decodeScope(r, "scope"); err != nil {
		return nil, err
	}
	//lint:allow sketchmutate decoding fills a fresh summary before any sketch (or cache) exists
	if s.ExtraScope, err = decodeScope(r, "extra scope"); err != nil {
		return nil, err
	}
	nd := r.Count(16, "value dims")
	for i := 0; i < nd; i++ {
		vd := &xsketch.ValueDim{
			Source: graphsyn.NodeID(r.U32("value-dim source")),
			Lo:     r.I64("value-dim lo"),
		}
		bins := r.Count(16, "value-dim bins")
		if r.Err() == nil {
			vd.Bounds = make([]int64, bins)
			for j := range vd.Bounds {
				vd.Bounds[j] = r.I64("value-dim bound")
			}
			vd.Los = make([]int64, bins)
			for j := range vd.Los {
				vd.Los[j] = r.I64("value-dim bin lo")
			}
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
		//lint:allow sketchmutate decoding fills a fresh summary before any sketch (or cache) exists
		s.ValueDims = append(s.ValueDims, vd)
	}
	hasHist := r.Byte("histogram presence")
	if err := r.Err(); err != nil {
		return nil, err
	}
	if hasHist != 0 {
		h, rest, err := histogram.DecodeHistogramBinary(r.Rest())
		if err != nil {
			return nil, err
		}
		//lint:allow sketchmutate decoding fills a fresh summary before any sketch (or cache) exists
		s.Hist = h
		*r = *histogram.NewByteReader(rest)
	}
	vs, rest, err := histogram.DecodeValueSummaryBinary(r.Rest())
	if err != nil {
		return nil, err
	}
	//lint:allow sketchmutate decoding fills a fresh summary before any sketch (or cache) exists
	s.VHist = vs
	*r = *histogram.NewByteReader(rest)
	return s, nil
}

func decodeScope(r *histogram.ByteReader, what string) ([]xsketch.ScopeEdge, error) {
	n := r.Count(8, what)
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	scope := make([]xsketch.ScopeEdge, n)
	for i := range scope {
		scope[i] = xsketch.ScopeEdge{
			From: graphsyn.NodeID(r.U32(what + " from")),
			To:   graphsyn.NodeID(r.U32(what + " to")),
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return scope, nil
}
