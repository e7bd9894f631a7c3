package main

import (
	"fmt"

	"fuzzyprophet/internal/rng"
)

// Every workload input derives from (workload, seed) through these
// generators and nothing else: no clock, no global randomness. The system
// under test only ever sees the generated values. The streams are the
// repository's own deterministic rng.Derive substreams, one per named use.

// newStream returns the generator for one named stream of one seed.
func newStream(seed uint64, stream string) *rng.Source { return rng.Derive(seed, stream, 0) }

// deriveSeed returns the seed of one named stream of one seed, for the
// seed bases the benchmark hands to the system.
func deriveSeed(seed uint64, stream string) uint64 { return newStream(seed, stream).Uint64() }

// ---- explore: the analyst's slider walk ----

// The explore sliders: @feature (3 values) × @purchase1 (14) ×
// @purchase2 (14) = 588 pin sets.
var (
	featureValues  = []int{12, 36, 44}
	purchaseValues = []int{0, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48, 52}
)

// pins is one slider position: indexes into the value lists.
type pins [3]int

func (p pins) params() map[string]any {
	return map[string]any{
		"feature":   featureValues[p[0]],
		"purchase1": purchaseValues[p[1]],
		"purchase2": purchaseValues[p[2]],
	}
}

var sliderNames = [3]string{"feature", "purchase1", "purchase2"}

// exploreWalk is the analyst's seeded walk over the sliders. It runs in
// blocks of exploreBlock moves. The first move of a block renders a pin set
// not seen before, taken from a fixed raster over the grid (feature, then
// purchase1 and purchase2 swept back and forth, one notch per move). The
// other moves nudge a slider back onto a pin set already seen, the analyst
// comparing against a frame already rendered; the seed picks those. A
// free random walk's cost varied by ±15% from seed to seed, with the order
// in which it happened to find new pin sets; a fixed schedule of new pin
// sets keeps the work of a run the same for every seed, while the seed
// still decides every compare move and, through the session's seed base,
// every sample. A run ends long before the raster: were it to run out, the
// rest of the run would be cheap compare moves only, and ops_per_s would
// swing far more than the machine's speed.
type exploreWalk struct {
	rng     *rng.Source
	cur     pins
	visited map[pins]bool
	raster  []pins
	step    int
}

const exploreBlock = 3

// exploreStart is the first op's pin set, the capacityplanning example's
// (feature 36, purchases at weeks 16 and 32).
var exploreStart = pins{1, 4, 8}

func newExploreWalk(seed uint64) *exploreWalk {
	w := &exploreWalk{rng: newStream(seed, "explore.walk"), cur: exploreStart, visited: map[pins]bool{}}
	w.visited[w.cur] = true
	for f := range featureValues {
		for i := range purchaseValues {
			a := i
			if f%2 == 1 {
				a = len(purchaseValues) - 1 - i
			}
			for j := range purchaseValues {
				b := j
				if (f*len(purchaseValues)+i)%2 == 1 {
					b = len(purchaseValues) - 1 - j
				}
				w.raster = append(w.raster, pins{f, a, b})
			}
		}
	}
	return w
}

// next returns the next pin set and the sliders that moved.
func (w *exploreWalk) next() (pins, []int) {
	var n pins
	fresh := false
	if w.step%exploreBlock == 0 {
		for len(w.raster) > 0 && !fresh {
			n, fresh = w.raster[0], !w.visited[w.raster[0]]
			w.raster = w.raster[1:]
		}
	}
	if !fresh { // a compare move, or every pin set seen
		cands := w.nearestSeen()
		n = cands[w.rng.Intn(len(cands))]
	}
	w.step++
	var moved []int
	for s := range n {
		if n[s] != w.cur[s] {
			moved = append(moved, s)
		}
	}
	w.cur = n
	w.visited[n] = true
	return n, moved
}

// notches is the number of slider notches between two pin sets.
func notches(a, b pins) int {
	n := 0
	for s := range a {
		d := a[s] - b[s]
		if d < 0 {
			d = -d
		}
		n += d
	}
	return n
}

// nearestSeen returns the seen pin sets closest to the current one:
// fewest sliders moved first, then fewest notches.
func (w *exploreWalk) nearestSeen() []pins {
	var best []pins
	bestCost := 1 << 30
	for f := range featureValues {
		for a := range purchaseValues {
			for b := range purchaseValues {
				n := pins{f, a, b}
				if n == w.cur || !w.visited[n] {
					continue
				}
				cost := notches(n, w.cur)
				for s := range n {
					if n[s] != w.cur[s] {
						cost += 100 // another slider outweighs any drag
					}
				}
				switch {
				case cost < bestCost:
					best, bestCost = []pins{n}, cost
				case cost == bestCost:
					best = append(best, n)
				}
			}
		}
	}
	return best
}

// ---- serve / fanout: scripted HTTP clients ----

// httpOp is one scripted client op.
type httpOp struct {
	// session indexes the client's session list; evaluate ops ignore it.
	session int
	// params are the slider positions the op PUTs before its render.
	params map[string]any
	// evaluate marks a POST /evaluate batch instead of PUT + GET render;
	// points is the batch.
	evaluate bool
	points   []map[string]any
}

// The serve/fanout scenarios' slider values.
var (
	releaseFeatures = []int{8, 20, 32, 44}
	fleetFeatures   = []int{12, 36}
)

// sessionKind says which scenario a client's session index renders: every
// third session serverfleet, the others featurerelease. A serverfleet frame
// costs several featurerelease frames; with one session in three, the
// median op lies well inside the featurerelease latencies instead of on
// the edge between the two.
func sessionKind(i int) string {
	if i%3 == 1 {
		return "serverfleet"
	}
	return "featurerelease"
}

// featureValuesFor returns the @feature slider values of a scenario.
func featureValuesFor(kind string) []int {
	if kind == "featurerelease" {
		return releaseFeatures
	}
	return fleetFeatures
}

// httpScript generates one client's op sequence. Clients rotate over
// their sessions in order. Each session steps through its scenario's
// @feature values in a seeded order, reshuffled after every full pass, so
// every value is rendered equally often whatever the seed. One op in each
// block of evaluateEvery, at a seeded place in the block, is an evaluate
// batch of seeded points instead: the weighted share of the mix is fixed,
// its placement and contents are not.
type httpScript struct {
	rng        *rng.Source
	sessions   int
	evalPoints int
	i          int
	evalAt     int
	cycles     map[int][]int
}

// evaluateEvery sets the share of POST /evaluate batches in the op mix.
const evaluateEvery = 10

func newHTTPScript(seed uint64, client, sessions, evalPoints int) *httpScript {
	return &httpScript{
		rng:        newStream(seed, fmt.Sprintf("http.client%d", client)),
		sessions:   sessions,
		evalPoints: evalPoints,
		evalAt:     -1,
		cycles:     map[int][]int{},
	}
}

func (s *httpScript) next() httpOp {
	if s.i%evaluateEvery == 0 {
		s.evalAt = s.i + s.rng.Intn(evaluateEvery)
	}
	if s.i == s.evalAt {
		s.i++
		op := httpOp{evaluate: true, points: make([]map[string]any, s.evalPoints)}
		for j := range op.points {
			op.points[j] = map[string]any{
				"current": s.rng.Intn(framePoints),
				"feature": releaseFeatures[s.rng.Intn(len(releaseFeatures))],
			}
		}
		return op
	}
	op := httpOp{session: s.i % s.sessions}
	s.i++
	cycle := s.cycles[op.session]
	if len(cycle) == 0 {
		cycle = append([]int(nil), featureValuesFor(sessionKind(op.session))...)
		for j := len(cycle) - 1; j > 0; j-- {
			k := s.rng.Intn(j + 1)
			cycle[j], cycle[k] = cycle[k], cycle[j]
		}
	}
	op.params = map[string]any{"feature": cycle[0]}
	s.cycles[op.session] = cycle[1:]
	return op
}
