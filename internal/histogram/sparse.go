package histogram

import (
	"fmt"
	"math/bits"
	"sort"
)

// Sparse is an exact distribution over integer count vectors. Frequencies
// are fractions of a population (they sum to 1 after Normalize) so that a
// point f(c1..ck) is "the fraction of elements with these counts".
//
// Points are looked up under packed integer keys: each coordinate takes a
// bit field of its dimension's current width, widened (and the index
// rebuilt from the points) when a larger coordinate arrives. A
// distribution whose fields no longer fit 64 bits, or that sees a
// negative coordinate, switches to byte-string keys for good.
type Sparse struct {
	dims  int
	pts   []point
	total float64
	// widths are the per-dimension bit widths of packed keys, and packed
	// maps a packed key to its index in pts. Once a point does not pack,
	// packed is nil and wide maps byte-string keys instead.
	widths []uint8
	packed map[uint64]int32
	wide   map[string]int32
	// lastKey and lastIdx remember the previous packed point, so runs of
	// equal coordinates skip the map; lastIdx is -1 when there is none.
	lastKey uint64
	lastIdx int32
}

type point struct {
	coords []int32
	freq   float64
}

// NewSparse creates an empty distribution with the given dimensionality.
// dims may be 0 (a distribution with a single empty-vector point).
func NewSparse(dims int) *Sparse {
	return &Sparse{dims: dims, widths: make([]uint8, dims), packed: make(map[uint64]int32), lastIdx: -1}
}

// Dims returns the dimensionality.
func (s *Sparse) Dims() int { return s.dims }

// Add accumulates weight onto the point with the given coordinates.
func (s *Sparse) Add(coords []int32, weight float64) {
	if len(coords) != s.dims {
		panic(fmt.Sprintf("histogram: Add with %d coords on %d-dim distribution", len(coords), s.dims))
	}
	s.total += weight
	if s.packed != nil {
		key, ok := s.pack(coords)
		if !ok && s.widen(coords) {
			key, ok = s.pack(coords)
		}
		if ok {
			i := s.lastIdx
			if i < 0 || key != s.lastKey {
				var found bool
				if i, found = s.packed[key]; !found {
					i = s.insert(coords)
					s.packed[key] = i
				}
				s.lastKey, s.lastIdx = key, i
			}
			s.pts[i].freq += weight
			return
		}
	}
	// The key is built in a stack buffer and the lookup converts it
	// without allocating; only a new point's key becomes a string.
	var buf [64]byte
	k := appendKey(buf[:0], coords)
	i, found := s.wide[string(k)]
	if !found {
		i = s.insert(coords)
		s.wide[string(k)] = i
	}
	s.pts[i].freq += weight
}

// insert appends a zero-frequency copy of coords and returns its index.
func (s *Sparse) insert(coords []int32) int32 {
	s.pts = append(s.pts, point{coords: append([]int32(nil), coords...)})
	return int32(len(s.pts) - 1)
}

// pack returns coords' packed key under the current widths, or false when
// a coordinate does not fit its field.
func (s *Sparse) pack(coords []int32) (uint64, bool) {
	var key uint64
	for i, c := range coords {
		w := s.widths[i]
		if c < 0 || uint32(c)>>w != 0 {
			return 0, false
		}
		key = key<<w | uint64(c)
	}
	return key, true
}

// widen grows the bit fields so coords pack and re-keys every point. When
// that would take more than 64 bits, or a coordinate is negative, it moves
// every point to byte-string keys and reports false.
func (s *Sparse) widen(coords []int32) bool {
	total := 0
	for i, c := range coords {
		if c < 0 {
			total = 65
			break
		}
		if w := uint8(bits.Len32(uint32(c))); w > s.widths[i] {
			s.widths[i] = w
		}
		total += int(s.widths[i])
	}
	s.lastIdx = -1
	if total <= 64 {
		clear(s.packed)
		for i, p := range s.pts {
			key, _ := s.pack(p.coords)
			s.packed[key] = int32(i)
		}
		return true
	}
	s.packed = nil
	s.wide = make(map[string]int32, len(s.pts))
	for i, p := range s.pts {
		s.wide[string(appendKey(nil, p.coords))] = int32(i)
	}
	return false
}

// Len returns the number of distinct points.
func (s *Sparse) Len() int { return len(s.pts) }

// Total returns the accumulated weight.
func (s *Sparse) Total() float64 { return s.total }

// Normalize scales frequencies to sum to 1. A zero-total distribution is
// left unchanged.
func (s *Sparse) Normalize() {
	if s.total == 0 {
		return
	}
	for i := range s.pts {
		s.pts[i].freq /= s.total
	}
	s.total = 1
}

// Points returns the points in deterministic (lexicographic coordinate)
// order as (coords, freq) pairs. The coordinate slices must not be
// modified.
func (s *Sparse) Points() []Point {
	out := make([]Point, 0, len(s.pts))
	for _, p := range s.pts {
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

// appendKey appends the byte-string key of a point: each coordinate as 4
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
