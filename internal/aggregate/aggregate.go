// Package aggregate implements Fuzzy Prophet's Result Aggregator (paper §2,
// architecture cycle step 4): it reduces per-world query outputs to the
// metrics scenarios ask for — expectations, standard deviations, overload
// probabilities, quantiles — and decides when an estimate has converged
// enough to show the user (the online mode's "accurate guess").
package aggregate

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"fuzzyprophet/internal/stats"
)

// ColumnStats aggregates the samples of one output column at one parameter
// point. It is MERGEABLE: two ColumnStats built over disjoint world ranges
// combine with Merge into the statistics of the union — moments via the
// parallel Welford merge, quantiles via the t-digest sketch (which replaced
// the earlier P² estimator precisely because P² markers cannot merge).
// World sharding leans on this: each shard folds its own range, the
// coordinator merges.
//
// The moments are always current; the t-digest is built only when a
// quantile, a sketch or a merge first needs it, so aggregating for EXPECT,
// EXPECT_STDDEV or PROB never pays for it. Like the digest's own buffered
// inserts, that first read mutates the ColumnStats: it is not safe for
// concurrent use.
type ColumnStats struct {
	Moments stats.Moments
	digest  *stats.TDigest
	// pending holds the FromSamples vector not yet folded into digest.
	pending []float64
}

// NewColumnStats returns an empty aggregator.
func NewColumnStats() *ColumnStats { return &ColumnStats{} }

// FromSamples returns an aggregator over a whole sample vector. It folds
// the moments in one pass and keeps xs, folding it into the t-digest — in
// order, so the result is bit-identical to NewColumnStats followed by
// AddAll(xs) — only when Quantile, Median, P95, Sketch, Merge or Add first
// needs the digest. xs is aliased, not copied: the caller must not mutate
// it while the aggregator is in use.
func FromSamples(xs []float64) *ColumnStats {
	c := &ColumnStats{pending: xs}
	for _, x := range xs {
		c.Moments.Add(x)
	}
	return c
}

// sketch returns the t-digest, building it from the pending samples on
// first use.
func (c *ColumnStats) sketch() *stats.TDigest {
	if c.digest == nil {
		c.digest = stats.NewTDigest(stats.DefaultCompression)
		c.digest.AddAll(c.pending)
		c.pending = nil
	}
	return c.digest
}

// Add folds in one world's value.
func (c *ColumnStats) Add(x float64) {
	c.Moments.Add(x)
	c.sketch().Add(x)
}

// AddAll folds in a whole sample vector.
func (c *ColumnStats) AddAll(xs []float64) {
	for _, x := range xs {
		c.Add(x)
	}
}

// Merge folds another column aggregator into c. Moments merge exactly (up
// to float rounding); quantile estimates merge within the sketch tolerance.
func (c *ColumnStats) Merge(o *ColumnStats) {
	c.Moments.Merge(&o.Moments)
	c.sketch().Merge(o.sketch())
}

// Expect returns the estimated expectation (EXPECT in scenario SQL).
func (c *ColumnStats) Expect() float64 { return c.Moments.Mean() }

// StdDev returns the estimated standard deviation (EXPECT_STDDEV).
func (c *ColumnStats) StdDev() float64 { return c.Moments.StdDev() }

// Prob returns the estimated probability, assuming the column is a 0/1
// indicator (PROB); it equals the mean.
func (c *ColumnStats) Prob() float64 { return c.Moments.Mean() }

// Median returns the running median estimate.
func (c *ColumnStats) Median() float64 { return c.quantile(0.5) }

// P95 returns the running 95th-percentile estimate.
func (c *ColumnStats) P95() float64 { return c.quantile(0.95) }

// Quantile returns the sketch's q-quantile estimate.
func (c *ColumnStats) Quantile(q float64) (float64, error) {
	return c.sketch().Quantile(q)
}

func (c *ColumnStats) quantile(q float64) float64 {
	v, err := c.sketch().Quantile(q)
	if err != nil {
		return 0
	}
	return v
}

// Count returns the number of worlds aggregated.
func (c *ColumnStats) Count() int64 { return c.Moments.Count() }

// CI95 returns the 95% confidence half-width of the mean.
func (c *ColumnStats) CI95() float64 { return c.Moments.CI95() }

// Converged reports whether the column's 95% CI half-width is within eps
// (relative to max(1, |mean|)), with at least minSamples worlds.
func (c *ColumnStats) Converged(eps float64, minSamples int64) bool {
	return c.Moments.Converged(eps*math.Max(1, math.Abs(c.Moments.Mean())), minSamples)
}

// Metric extracts the named aggregate: EXPECT, EXPECT_STDDEV or PROB
// (scenario GRAPH items), plus MEDIAN and P95 for diagnostics.
func (c *ColumnStats) Metric(agg string) (float64, error) {
	switch agg {
	case "EXPECT":
		return c.Expect(), nil
	case "EXPECT_STDDEV":
		return c.StdDev(), nil
	case "PROB":
		return c.Prob(), nil
	case "MEDIAN":
		return c.Median(), nil
	case "P95":
		return c.P95(), nil
	default:
		return 0, fmt.Errorf("aggregate: unknown metric %q", agg)
	}
}

// ColumnSketch is the serializable form of a ColumnStats: raw Welford
// moments plus the t-digest centroid list. It is what the HTTP shard
// protocol ships — a worker folds its world range into a ColumnStats,
// serializes it with Sketch, and the coordinator restores and merges the
// partial sketches without ever seeing the worker's raw sample vector.
type ColumnSketch struct {
	Count       int64            `json:"count"`
	Mean        float64          `json:"mean"`
	M2          float64          `json:"m2"`
	Min         float64          `json:"min"`
	Max         float64          `json:"max"`
	Compression float64          `json:"compression,omitempty"`
	Centroids   []stats.Centroid `json:"centroids,omitempty"`
}

// Sketch serializes the aggregator's state.
func (c *ColumnStats) Sketch() ColumnSketch {
	n, mean, m2, min, max := c.Moments.State()
	digest := c.sketch()
	return ColumnSketch{
		Count:       n,
		Mean:        mean,
		M2:          m2,
		Min:         min,
		Max:         max,
		Compression: digest.Compression(),
		Centroids:   digest.Centroids(),
	}
}

// Stats restores an aggregator from its serialized form. Moments round-trip
// exactly; the digest round-trips its centroid state.
func (sk ColumnSketch) Stats() *ColumnStats {
	compression := sk.Compression
	if compression <= 0 {
		compression = stats.DefaultCompression
	}
	return &ColumnStats{
		Moments: stats.MomentsFromState(sk.Count, sk.Mean, sk.M2, sk.Min, sk.Max),
		digest:  stats.TDigestFromCentroids(compression, sk.Centroids, sk.Min, sk.Max),
	}
}

// MergeSketches merges serialized partial sketches in order (shard 0 first)
// into one aggregator; nil when the list is empty.
func MergeSketches(sketches []ColumnSketch) *ColumnStats {
	var out *ColumnStats
	for _, sk := range sketches {
		cs := sk.Stats()
		if out == nil {
			out = cs
			continue
		}
		out.Merge(cs)
	}
	return out
}

// PointStats aggregates all output columns at one parameter point. It is
// safe for concurrent Add from Monte Carlo workers.
type PointStats struct {
	mu   sync.Mutex
	cols map[string]*ColumnStats
}

// NewPointStats returns an aggregator with the given output columns.
func NewPointStats(columns []string) *PointStats {
	p := &PointStats{cols: make(map[string]*ColumnStats, len(columns))}
	for _, c := range columns {
		p.cols[c] = NewColumnStats()
	}
	return p
}

// Add folds one world's value into the named column.
func (p *PointStats) Add(column string, x float64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, ok := p.cols[column]
	if !ok {
		return fmt.Errorf("aggregate: unknown column %q", column)
	}
	c.Add(x)
	return nil
}

// AddSamples folds a whole sample vector into the named column.
func (p *PointStats) AddSamples(column string, xs []float64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, ok := p.cols[column]
	if !ok {
		return fmt.Errorf("aggregate: unknown column %q", column)
	}
	c.AddAll(xs)
	return nil
}

// Column returns the named column's aggregator.
func (p *PointStats) Column(name string) (*ColumnStats, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, ok := p.cols[name]
	return c, ok
}

// Columns returns the column names, sorted.
func (p *PointStats) Columns() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.cols))
	for n := range p.cols {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Converged reports whether every column's 95% CI half-width is within eps
// (relative to max(1, |mean|)), with at least minSamples worlds. This is
// the online mode's "first accurate guess" criterion.
func (p *PointStats) Converged(eps float64, minSamples int64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.cols {
		if !c.Converged(eps, minSamples) {
			return false
		}
	}
	return true
}
