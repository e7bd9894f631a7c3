package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sync"

	fp "fuzzyprophet"
)

// framePoints is the number of @current positions of every scenario the
// benchmark renders (weeks 0..52).
const framePoints = 53

// checkFrame verifies a rendered frame's shape: framePoints X positions
// and, for every series, framePoints finite Y values.
func checkFrame(g *fp.Graph) error {
	if g == nil {
		return checkf("no graph")
	}
	if len(g.X) != framePoints {
		return checkf("frame has %d x positions, want %d", len(g.X), framePoints)
	}
	if len(g.Series) == 0 {
		return checkf("frame has no series")
	}
	for _, s := range g.Series {
		if len(s.Y) != framePoints {
			return checkf("series %s has %d values, want %d", s.Name, len(s.Y), framePoints)
		}
		for i, y := range s.Y {
			if math.IsNaN(y) || math.IsInf(y, 0) {
				return checkf("series %s value %d is %v", s.Name, i, y)
			}
		}
	}
	return nil
}

// frameHash fingerprints a frame's content (axis, X and every series'
// values, bit for bit) but not its render statistics, which legitimately
// differ between a fresh and a reused render of the same frame.
func frameHash(g *fp.Graph) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(f float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
	h.Write([]byte(g.Axis))
	for _, x := range g.X {
		put(x)
	}
	for _, s := range g.Series {
		h.Write([]byte(s.Name + "\x00" + s.Agg + "\x00" + s.Column + "\x00"))
		for _, y := range s.Y {
			put(y)
		}
	}
	return h.Sum64()
}

// frameStore remembers the first frame served for each key and reports a
// later frame under the same key that is not bit-identical to it. Safe for
// concurrent clients.
type frameStore struct {
	mu sync.Mutex
	m  map[string]uint64
}

func newFrameStore() *frameStore { return &frameStore{m: map[string]uint64{}} }

func (fs *frameStore) check(key string, g *fp.Graph) error {
	h := frameHash(g)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if first, ok := fs.m[key]; ok && first != h {
		return checkf("frame %s differs from its first render", key)
	}
	fs.m[key] = h
	return nil
}
