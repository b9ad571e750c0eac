package histogram

import (
	"fmt"
	"sort"
)

// Sparse is an exact distribution over integer count vectors. Frequencies
// are fractions of a population (they sum to 1 after Normalize) so that a
// point f(c1..ck) is "the fraction of elements with these counts".
type Sparse struct {
	dims   int
	points map[string]*point
	total  float64
}

type point struct {
	coords []int32
	freq   float64
}

// NewSparse creates an empty distribution with the given dimensionality.
// dims may be 0 (a distribution with a single empty-vector point).
func NewSparse(dims int) *Sparse {
	return &Sparse{dims: dims, points: make(map[string]*point)}
}

// Dims returns the dimensionality.
func (s *Sparse) Dims() int { return s.dims }

// Add accumulates weight onto the point with the given coordinates.
func (s *Sparse) Add(coords []int32, weight float64) {
	if len(coords) != s.dims {
		panic(fmt.Sprintf("histogram: Add with %d coords on %d-dim distribution", len(coords), s.dims))
	}
	// The key is built in a stack buffer and the lookup converts it
	// without allocating; only a new point's key becomes a string.
	var buf [64]byte
	k := appendKey(buf[:0], coords)
	p := s.points[string(k)]
	if p == nil {
		c := make([]int32, len(coords))
		copy(c, coords)
		p = &point{coords: c}
		s.points[string(k)] = p
	}
	p.freq += weight
	s.total += weight
}

// Len returns the number of distinct points.
func (s *Sparse) Len() int { return len(s.points) }

// Total returns the accumulated weight.
func (s *Sparse) Total() float64 { return s.total }

// Normalize scales frequencies to sum to 1. A zero-total distribution is
// left unchanged.
func (s *Sparse) Normalize() {
	if s.total == 0 {
		return
	}
	for _, p := range s.points {
		p.freq /= s.total
	}
	s.total = 1
}

// Points returns the points in deterministic (lexicographic coordinate)
// order as (coords, freq) pairs. The coordinate slices must not be
// modified.
func (s *Sparse) Points() []Point {
	out := make([]Point, 0, len(s.points))
	for _, p := range s.points {
		out = append(out, Point{Coords: p.coords, Freq: p.freq})
	}
	sort.Slice(out, func(i, j int) bool { return lessCoords(out[i].Coords, out[j].Coords) })
	return out
}

// Point is an exported (coords, frequency) pair.
type Point struct {
	Coords []int32
	Freq   float64
}

// appendKey appends the map key of a point: each coordinate as 4
// little-endian bytes.
func appendKey(b []byte, coords []int32) []byte {
	for _, c := range coords {
		b = append(b, byte(c), byte(c>>8), byte(c>>16), byte(c>>24))
	}
	return b
}

func lessCoords(a, b []int32) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
