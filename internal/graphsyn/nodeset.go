package graphsyn

// NodeSet is a set of node IDs, one bit per ID. The zero value is empty.
type NodeSet []uint64

// Add inserts id (which must be non-negative).
func (s *NodeSet) Add(id NodeID) {
	w := int(id) >> 6
	for len(*s) <= w {
		*s = append(*s, 0)
	}
	(*s)[w] |= 1 << (uint(id) & 63)
}

// Has reports whether id is in the set.
func (s NodeSet) Has(id NodeID) bool {
	w := int(id) >> 6
	return id >= 0 && w < len(s) && s[w]&(1<<(uint(id)&63)) != 0
}

// Meets reports whether the two sets share an ID.
func (s NodeSet) Meets(t NodeSet) bool {
	for i := 0; i < len(s) && i < len(t); i++ {
		if s[i]&t[i] != 0 {
			return true
		}
	}
	return false
}
