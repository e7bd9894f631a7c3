package aggregate

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"fuzzyprophet/internal/rng"
)

func TestColumnStatsBasics(t *testing.T) {
	c := NewColumnStats()
	for _, x := range []float64{1, 2, 3, 4, 5} {
		c.Add(x)
	}
	if c.Count() != 5 {
		t.Errorf("count = %d", c.Count())
	}
	if c.Expect() != 3 {
		t.Errorf("expect = %g", c.Expect())
	}
	if math.Abs(c.StdDev()-math.Sqrt(2.5)) > 1e-12 {
		t.Errorf("stddev = %g", c.StdDev())
	}
	if c.Median() != 3 {
		t.Errorf("median = %g", c.Median())
	}
}

func TestColumnStatsProbIndicator(t *testing.T) {
	c := NewColumnStats()
	for i := 0; i < 100; i++ {
		if i < 25 {
			c.Add(1)
		} else {
			c.Add(0)
		}
	}
	if math.Abs(c.Prob()-0.25) > 1e-12 {
		t.Errorf("prob = %g", c.Prob())
	}
}

func TestColumnStatsQuantiles(t *testing.T) {
	c := NewColumnStats()
	s := rng.New(3)
	for i := 0; i < 50000; i++ {
		c.Add(s.Normal(0, 1))
	}
	if math.Abs(c.Median()) > 0.03 {
		t.Errorf("median = %g, want ~0", c.Median())
	}
	if math.Abs(c.P95()-1.6449) > 0.06 {
		t.Errorf("p95 = %g, want ~1.645", c.P95())
	}
}

func TestMetric(t *testing.T) {
	c := NewColumnStats()
	c.AddAll([]float64{0, 1, 1, 0})
	for _, agg := range []string{"EXPECT", "EXPECT_STDDEV", "PROB", "MEDIAN", "P95"} {
		if _, err := c.Metric(agg); err != nil {
			t.Errorf("Metric(%s): %v", agg, err)
		}
	}
	v, _ := c.Metric("EXPECT")
	if v != 0.5 {
		t.Errorf("EXPECT = %g", v)
	}
	if _, err := c.Metric("BOGUS"); err == nil {
		t.Error("unknown metric should error")
	}
}

func TestPointStats(t *testing.T) {
	p := NewPointStats([]string{"demand", "capacity", "overload"})
	if err := p.Add("demand", 10); err != nil {
		t.Fatal(err)
	}
	if err := p.AddSamples("overload", []float64{1, 0, 0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := p.Add("nope", 1); err == nil {
		t.Error("unknown column should error")
	}
	if err := p.AddSamples("nope", nil); err == nil {
		t.Error("unknown column should error")
	}
	c, ok := p.Column("overload")
	if !ok || c.Count() != 4 {
		t.Errorf("column = %v, %v", c, ok)
	}
	if _, ok := p.Column("zzz"); ok {
		t.Error("missing column lookup should fail")
	}
	cols := p.Columns()
	if len(cols) != 3 || cols[0] != "capacity" {
		t.Errorf("columns = %v", cols)
	}
}

func TestConvergence(t *testing.T) {
	p := NewPointStats([]string{"x"})
	if p.Converged(0.1, 10) {
		t.Error("empty aggregator cannot be converged")
	}
	s := rng.New(5)
	for i := 0; i < 5; i++ {
		p.Add("x", s.Normal(100, 1))
	}
	if p.Converged(0.1, 10) {
		t.Error("below minSamples cannot be converged")
	}
	for i := 0; i < 5000; i++ {
		p.Add("x", s.Normal(100, 1))
	}
	if !p.Converged(0.01, 10) {
		t.Error("tight distribution with many samples should converge")
	}
	// A huge-variance column blocks convergence at small eps.
	q := NewPointStats([]string{"y"})
	for i := 0; i < 100; i++ {
		q.Add("y", s.Normal(0, 1000))
	}
	if q.Converged(0.0001, 10) {
		t.Error("noisy column should not converge at tight eps")
	}
}

func TestConcurrentAdds(t *testing.T) {
	p := NewPointStats([]string{"x"})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if err := p.Add("x", 1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	c, _ := p.Column("x")
	if c.Count() != 8000 {
		t.Errorf("count = %d", c.Count())
	}
}

// TestColumnStatsMerge: shard-wise folding plus Merge matches a whole-vector
// fold — moments to float tolerance, quantiles within sketch tolerance.
func TestColumnStatsMerge(t *testing.T) {
	s := rng.New(17)
	xs := make([]float64, 40000)
	for i := range xs {
		xs[i] = s.Normal(5, 2)
	}
	whole := NewColumnStats()
	whole.AddAll(xs)
	for _, shards := range []int{2, 7, 16} {
		var merged *ColumnStats
		chunk := (len(xs) + shards - 1) / shards
		for lo := 0; lo < len(xs); lo += chunk {
			hi := lo + chunk
			if hi > len(xs) {
				hi = len(xs)
			}
			part := NewColumnStats()
			part.AddAll(xs[lo:hi])
			if merged == nil {
				merged = part
			} else {
				merged.Merge(part)
			}
		}
		if merged.Count() != whole.Count() {
			t.Fatalf("%d shards: count = %d, want %d", shards, merged.Count(), whole.Count())
		}
		if math.Abs(merged.Expect()-whole.Expect()) > 1e-9 {
			t.Errorf("%d shards: expect = %g, want %g", shards, merged.Expect(), whole.Expect())
		}
		if math.Abs(merged.StdDev()-whole.StdDev()) > 1e-9 {
			t.Errorf("%d shards: stddev = %g, want %g", shards, merged.StdDev(), whole.StdDev())
		}
		if merged.Moments.Min() != whole.Moments.Min() || merged.Moments.Max() != whole.Moments.Max() {
			t.Errorf("%d shards: min/max mismatch", shards)
		}
		if math.Abs(merged.Median()-whole.Median()) > 0.05 {
			t.Errorf("%d shards: median = %g, want ~%g", shards, merged.Median(), whole.Median())
		}
		if math.Abs(merged.P95()-whole.P95()) > 0.1 {
			t.Errorf("%d shards: p95 = %g, want ~%g", shards, merged.P95(), whole.P95())
		}
	}
}

// TestColumnSketchRoundTrip: serializing a partial aggregate and merging the
// restored form behaves identically to merging the original.
func TestColumnSketchRoundTrip(t *testing.T) {
	s := rng.New(29)
	a, b := NewColumnStats(), NewColumnStats()
	for i := 0; i < 5000; i++ {
		a.Add(s.Normal(0, 1))
		b.Add(s.Normal(3, 1))
	}
	restoredA := a.Sketch().Stats()
	if restoredA.Count() != a.Count() || restoredA.Expect() != a.Expect() || restoredA.StdDev() != a.StdDev() {
		t.Fatal("sketch round-trip changed moments")
	}
	if restoredA.Median() != a.Median() {
		t.Errorf("round-trip median %g != %g", restoredA.Median(), a.Median())
	}

	direct := NewColumnStats()
	direct.Merge(a)
	direct.Merge(b)
	viaSketch := MergeSketches([]ColumnSketch{a.Sketch(), b.Sketch()})
	if viaSketch.Count() != direct.Count() || viaSketch.Expect() != direct.Expect() {
		t.Errorf("sketch merge: count/mean %d/%g, want %d/%g",
			viaSketch.Count(), viaSketch.Expect(), direct.Count(), direct.Expect())
	}
	if math.Abs(viaSketch.Median()-direct.Median()) > 0.05 {
		t.Errorf("sketch merge median %g, want ~%g", viaSketch.Median(), direct.Median())
	}
	if MergeSketches(nil) != nil {
		t.Error("MergeSketches(nil) should be nil")
	}
}

var sinkFloat float64

// TestFromSamplesLazyDigest: FromSamples answers the moment metrics without
// building a t-digest, and once one is needed its quantiles, sketch and
// merges are bit-identical to folding the same vector with AddAll.
func TestFromSamplesLazyDigest(t *testing.T) {
	s := rng.New(41)
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = s.Normal(10, 3)
	}
	allocs := testing.AllocsPerRun(50, func() {
		cs := FromSamples(xs)
		sinkFloat = cs.Expect() + cs.StdDev() + cs.CI95() + cs.Prob()
	})
	if allocs > 1 { // the ColumnStats itself; a digest costs several more
		t.Errorf("FromSamples + moment reads: %.0f allocs, want <= 1", allocs)
	}
	lazy := FromSamples(xs)
	if _, err := lazy.Metric("EXPECT_STDDEV"); err != nil || lazy.digest != nil {
		t.Fatalf("moment metric built a digest (err %v)", err)
	}

	eager := NewColumnStats()
	eager.AddAll(xs)
	if lazy.Moments != eager.Moments {
		t.Fatalf("moments %+v, want %+v", lazy.Moments, eager.Moments)
	}
	for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.95, 0.999, 1} {
		got, err1 := FromSamples(xs).Quantile(q)
		want, err2 := eager.Quantile(q)
		if err1 != nil || err2 != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("q=%g: lazy %v (%v), eager %v (%v)", q, got, err1, want, err2)
		}
	}
	if got, want := FromSamples(xs).Median(), eager.Median(); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("median %v, want %v", got, want)
	}
	if got, want := FromSamples(xs).P95(), eager.P95(); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("p95 %v, want %v", got, want)
	}
	if !reflect.DeepEqual(FromSamples(xs).Sketch(), eager.Sketch()) {
		t.Error("Sketch differs from the eager fold")
	}

	// Merges, in both directions, and Add after FromSamples.
	k := len(xs) / 3
	lazyMerged := FromSamples(xs[:k])
	lazyMerged.Merge(FromSamples(xs[k:]))
	eagerA, eagerB := NewColumnStats(), NewColumnStats()
	eagerA.AddAll(xs[:k])
	eagerB.AddAll(xs[k:])
	eagerA.Merge(eagerB)
	if !reflect.DeepEqual(lazyMerged.Sketch(), eagerA.Sketch()) {
		t.Error("merged FromSamples sketch differs from the eager merge")
	}
	intoEager := NewColumnStats()
	intoEager.Merge(FromSamples(xs))
	intoEagerWant := NewColumnStats()
	intoEagerWant.Merge(eager)
	if !reflect.DeepEqual(intoEager.Sketch(), intoEagerWant.Sketch()) {
		t.Error("merging a FromSamples aggregator differs from merging the eager one")
	}
	grown := FromSamples(xs[:k])
	grown.AddAll(xs[k:])
	if !reflect.DeepEqual(grown.Sketch(), eager.Sketch()) {
		t.Error("FromSamples + AddAll differs from one eager fold")
	}
}
