package graphsyn

// SizeModel assigns a storage cost in bytes to the stored form of a
// synopsis. The stored structural summary consists of, per node, its tag
// reference and extent count and, per edge, a target reference plus the two
// stability bits; extents and the element assignment exist only at build
// time and are never charged, matching the paper's accounting where the
// coarsest XMark synopsis is ~12KB for a 103k-element document.
type SizeModel struct {
	// NodeBytes is the stored cost of one synopsis node (tag + count).
	NodeBytes int
	// EdgeBytes is the stored cost of one synopsis edge (target reference +
	// stability flags).
	EdgeBytes int
	// BucketDimBytes is the per-dimension cost of a histogram bucket
	// coordinate, and BucketFreqBytes the cost of its frequency, used by the
	// histogram packages through this shared model.
	BucketDimBytes  int
	BucketFreqBytes int
}

// DefaultSizeModel mirrors a plausible packed representation: 6-byte nodes
// (2-byte tag, 4-byte count), 5-byte edges (4-byte target + flag byte),
// 4-byte bucket coordinates and frequencies.
func DefaultSizeModel() SizeModel {
	return SizeModel{NodeBytes: 6, EdgeBytes: 5, BucketDimBytes: 4, BucketFreqBytes: 4}
}

// StructureBytes returns the stored size of the structural summary (nodes +
// edges) under the model.
func (m SizeModel) StructureBytes(s *Synopsis) int {
	return len(s.nodes)*m.NodeBytes + s.numEdges*m.EdgeBytes
}

// BucketBytes returns the stored size of one histogram bucket with the
// given dimensionality.
func (m SizeModel) BucketBytes(dims int) int {
	return dims*m.BucketDimBytes + m.BucketFreqBytes
}
