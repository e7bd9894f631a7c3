package mc

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"fuzzyprophet/internal/aggregate"
	"fuzzyprophet/internal/benchfix"
	"fuzzyprophet/internal/core"
	"fuzzyprophet/internal/scenario"
	"fuzzyprophet/internal/sqlparser"
	"fuzzyprophet/internal/stats"
	"fuzzyprophet/internal/storage"
)

func TestSplitWorlds(t *testing.T) {
	cases := []struct {
		n, k int
		want []WorldRange
	}{
		{10, 2, []WorldRange{{0, 5}, {5, 10}}},
		{10, 3, []WorldRange{{0, 4}, {4, 7}, {7, 10}}},
		{3, 7, []WorldRange{{0, 1}, {1, 2}, {2, 3}}},
		{5, 1, []WorldRange{{0, 5}}},
		{0, 4, nil},
	}
	for _, tc := range cases {
		got := SplitWorlds(tc.n, tc.k)
		if len(got) != len(tc.want) {
			t.Fatalf("SplitWorlds(%d,%d) = %v, want %v", tc.n, tc.k, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("SplitWorlds(%d,%d)[%d] = %v, want %v", tc.n, tc.k, i, got[i], tc.want[i])
			}
		}
	}
	// Exhaustive invariants: contiguous, non-empty, covering.
	for n := 1; n < 40; n++ {
		for k := 1; k < 20; k++ {
			ranges := SplitWorlds(n, k)
			lo := 0
			for _, r := range ranges {
				if r.Lo != lo || r.Len() <= 0 {
					t.Fatalf("SplitWorlds(%d,%d): bad range %v", n, k, ranges)
				}
				lo = r.Hi
			}
			if lo != n {
				t.Fatalf("SplitWorlds(%d,%d) does not cover [0,%d): %v", n, k, n, ranges)
			}
		}
	}
}

// compileExample compiles one bundled example scenario with its side
// tables attached.
func compileExample(t *testing.T, name string) *scenario.Scenario {
	t.Helper()
	reg, err := benchfix.Registry()
	if err != nil {
		t.Fatal(err)
	}
	scn, err := scenario.Compile(sqlparser.ExampleScenarios()[name], reg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if name == "serverfleet" {
		regions, err := benchfix.RegionsTable()
		if err != nil {
			t.Fatal(err)
		}
		if err := scn.AddTable(regions); err != nil {
			t.Fatal(err)
		}
	}
	return scn
}

// TestShardedEvaluationBitIdentical: for every bundled example scenario,
// sharded evaluation at 2, 7 and 16 shards produces byte-for-byte the same
// per-world output vectors — and therefore bit-identical EXPECT /
// EXPECT_STDDEV / PROB — as the single-range evaluation, with no sketches;
// and the merged sketches of a sketch-only evaluation at the same shard
// count agree with exact quantiles within the sketch tolerance.
func TestShardedEvaluationBitIdentical(t *testing.T) {
	ctx := context.Background()
	const worlds = 500
	for _, name := range sqlparser.ExampleScenarioNames() {
		t.Run(name, func(t *testing.T) {
			scn := compileExample(t, name)
			pt := scn.DefaultPoint()
			base := NewEvaluator(scn, Options{Worlds: worlds})
			want, err := base.EvaluatePoint(ctx, pt)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Columns) == 0 {
				t.Fatalf("%s: no output columns", name)
			}
			for _, shards := range []int{1, 2, 7, 16} {
				ev := NewEvaluator(scn, Options{Worlds: worlds, Shards: shards})
				got, err := ev.EvaluatePoint(ctx, pt)
				if err != nil {
					t.Fatalf("%d shards: %v", shards, err)
				}
				assertSameColumns(t, shards, want, got)
				if got.Sketches != nil {
					t.Fatalf("%d shards: full evaluation carries sketches", shards)
				}
				sk, err := NewEvaluator(scn, Options{Worlds: worlds, Shards: shards, SketchOnly: true}).EvaluatePoint(ctx, pt)
				if err != nil {
					t.Fatalf("%d shards sketch-only: %v", shards, err)
				}
				if len(sk.Sketches) != len(want.Columns) {
					t.Fatalf("%d shards: %d merged sketches, want %d", shards, len(sk.Sketches), len(want.Columns))
				}
				for col, cs := range sk.Sketches {
					exact, err := stats.Quantile(want.Columns[col], 0.95)
					if err != nil {
						t.Fatal(err)
					}
					lo, _ := stats.Quantile(want.Columns[col], 0.90)
					hi, _ := stats.Quantile(want.Columns[col], 1)
					if p95 := cs.P95(); p95 < lo || p95 > hi {
						t.Errorf("%d shards: %s sketch p95 %g outside [%g,%g] (exact %g)",
							shards, col, p95, lo, hi, exact)
					}
					if cs.Count() != int64(len(want.Columns[col])) {
						t.Errorf("%d shards: %s sketch count %d, want %d",
							shards, col, cs.Count(), len(want.Columns[col]))
					}
				}
			}
		})
	}
}

func assertSameColumns(t *testing.T, shards int, want, got *PointResult) {
	t.Helper()
	if len(got.Columns) != len(want.Columns) {
		t.Fatalf("%d shards: %d columns, want %d", shards, len(got.Columns), len(want.Columns))
	}
	for col, w := range want.Columns {
		g, ok := got.Columns[col]
		if !ok {
			t.Fatalf("%d shards: missing column %q", shards, col)
		}
		if len(g) != len(w) {
			t.Fatalf("%d shards: column %q has %d rows, want %d", shards, col, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] && !(math.IsNaN(g[i]) && math.IsNaN(w[i])) {
				t.Fatalf("%d shards: column %q world %d = %v, want %v (bit-identity violated)",
					shards, col, i, g[i], w[i])
			}
		}
		// Aggregating the stitched vectors must therefore be bit-identical.
		ws, gs := aggregate.NewColumnStats(), aggregate.NewColumnStats()
		ws.AddAll(w)
		gs.AddAll(g)
		if ws.Expect() != gs.Expect() || ws.StdDev() != gs.StdDev() || ws.Prob() != gs.Prob() {
			t.Fatalf("%d shards: column %q aggregate mismatch", shards, col)
		}
	}
}

// TestShardedEvaluationWithReuse: sharding composes with the fingerprint
// reuse engine — the coordinator computes reuse-aware site vectors, shards
// slice them, and the stitched output still matches bit for bit.
func TestShardedEvaluationWithReuse(t *testing.T) {
	ctx := context.Background()
	const worlds = 400
	scn := compileExample(t, "capacityplanning")
	pt := scn.DefaultPoint()

	base := NewEvaluator(scn, Options{Worlds: worlds})
	want, err := base.EvaluatePoint(ctx, pt)
	if err != nil {
		t.Fatal(err)
	}

	reuse, err := NewReuse(core.DefaultConfig(), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(scn, Options{Worlds: worlds, Shards: 4, Reuse: reuse})
	first, err := ev.EvaluatePoint(ctx, pt)
	if err != nil {
		t.Fatal(err)
	}
	assertSameColumns(t, 4, want, first)
	for site, kind := range first.SiteOutcome {
		if kind != Computed {
			t.Errorf("first render site %s = %v, want computed", site, kind)
		}
	}
	// Second render at the same point: exact cache hits, same bits.
	second, err := ev.EvaluatePoint(ctx, pt)
	if err != nil {
		t.Fatal(err)
	}
	assertSameColumns(t, 4, want, second)
	for site, kind := range second.SiteOutcome {
		if kind != CachedExact {
			t.Errorf("second render site %s = %v, want cached", site, kind)
		}
	}
}

// TestEvaluateShardStitch: a full render reassembled from worker-style
// EvaluateShard calls (self-simulating partial evaluations, as the HTTP
// worker performs them) matches the single-range render bit for bit.
func TestEvaluateShardStitch(t *testing.T) {
	ctx := context.Background()
	const worlds = 300
	for _, name := range []string{"capacityplanning", "serverfleet"} {
		scn := compileExample(t, name)
		pt := scn.DefaultPoint()
		base := NewEvaluator(scn, Options{Worlds: worlds})
		want, err := base.EvaluatePoint(ctx, pt)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{2, 7} {
			outs := make([]*ShardOutput, 0, shards)
			for _, r := range SplitWorlds(worlds, shards) {
				// A fresh evaluator per shard: workers share nothing.
				worker := NewEvaluator(scn, Options{Worlds: worlds, Shards: 2})
				out, err := worker.EvaluateShard(ctx, pt, r)
				if err != nil {
					t.Fatalf("%s shard %v: %v", name, r, err)
				}
				if out.Sketches != nil {
					t.Fatalf("%s shard %v: full shard output carries sketches", name, r)
				}
				outs = append(outs, out)
			}
			columns, _, err := stitchShards(outs, false)
			if err != nil {
				t.Fatal(err)
			}
			for col, w := range want.Columns {
				g := columns[col]
				if len(g) != len(w) {
					t.Fatalf("%s %d shards: column %q rows %d, want %d", name, shards, col, len(g), len(w))
				}
				for i := range w {
					if g[i] != w[i] {
						t.Fatalf("%s %d shards: column %q row %d mismatch", name, shards, col, i)
					}
				}
			}
		}
	}
}

func TestEvaluateShardValidation(t *testing.T) {
	ctx := context.Background()
	scn := compileExample(t, "capacityplanning")
	ev := NewEvaluator(scn, Options{Worlds: 100})
	for _, r := range []WorldRange{{-1, 10}, {0, 101}, {5, 5}, {9, 3}} {
		if _, err := ev.EvaluateShard(ctx, scn.DefaultPoint(), r); err == nil {
			t.Errorf("EvaluateShard(%v) should reject the range", r)
		}
	}
}

// TestShardedRunnerFallback: a runner that always fails must not fail the
// render — every shard falls back to local evaluation, bit-identically.
func TestShardedRunnerFallback(t *testing.T) {
	ctx := context.Background()
	const worlds = 200
	scn := compileExample(t, "capacityplanning")
	pt := scn.DefaultPoint()
	base := NewEvaluator(scn, Options{Worlds: worlds})
	want, err := base.EvaluatePoint(ctx, pt)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int32
	failing := func(ctx context.Context, task ShardTask) (*ShardOutput, error) {
		calls.Add(1)
		return nil, fmt.Errorf("worker down")
	}
	ev := NewEvaluator(scn, Options{Worlds: worlds, Shards: 3, Runner: failing})
	got, err := ev.EvaluatePoint(ctx, pt)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 3 {
		t.Errorf("runner called %d times, want 3", calls.Load())
	}
	assertSameColumns(t, 3, want, got)
}

// TestDegradedHarvestFoldsCompletedRanges: when the deadline cuts a
// fan-out, the degraded result's sketches cover exactly the completed
// ranges — folded from their sample vectors on a full evaluation, merged
// from their sketches on a sketch-only one — and their moments match a
// direct fold of those worlds.
func TestDegradedHarvestFoldsCompletedRanges(t *testing.T) {
	const worlds, shards, hung = 240, 4, 2
	scn := compileExample(t, "featurerelease")
	pt := scn.DefaultPoint()
	full, err := NewEvaluator(scn, Options{Worlds: worlds}).EvaluatePoint(context.Background(), pt)
	if err != nil {
		t.Fatal(err)
	}
	ranges := SplitWorlds(worlds, shards)
	runner := func(ctx context.Context, task ShardTask) (*ShardOutput, error) {
		if task.Index == hung {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		worker := NewEvaluator(scn, Options{Worlds: task.Worlds, SeedBase: task.SeedBase, SketchOnly: task.SketchOnly})
		return worker.EvaluateShard(ctx, task.Point, task.Range)
	}
	for _, sketchOnly := range []bool{false, true} {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		ev := NewEvaluator(scn, Options{Worlds: worlds, Shards: shards, Runner: runner, SketchOnly: sketchOnly, AllowDegraded: true})
		res, err := ev.EvaluatePoint(ctx, pt)
		cancel()
		if err != nil {
			t.Fatalf("sketchOnly=%v: %v", sketchOnly, err)
		}
		if !res.Degraded || res.Columns != nil || res.WorldsCompleted != worlds-ranges[hung].Len() {
			t.Fatalf("sketchOnly=%v: degraded=%v columns=%v completed=%d, want degraded, no columns, %d worlds",
				sketchOnly, res.Degraded, res.Columns != nil, res.WorldsCompleted, worlds-ranges[hung].Len())
		}
		for col, samples := range full.Columns {
			var done []float64
			for i, r := range ranges {
				if i != hung {
					done = append(done, samples[r.Lo:r.Hi]...)
				}
			}
			want := aggregate.FromSamples(done)
			got, ok := res.Sketches[col]
			if !ok || got.Count() != want.Count() {
				t.Fatalf("sketchOnly=%v %s: sketch %v, want count %d", sketchOnly, col, ok, want.Count())
			}
			for _, m := range [][2]float64{{got.Expect(), want.Expect()}, {got.StdDev(), want.StdDev()}} {
				if math.Abs(m[0]-m[1]) > 1e-9*math.Max(1, math.Abs(m[1])) {
					t.Errorf("sketchOnly=%v %s: moment %v, want %v", sketchOnly, col, m[0], m[1])
				}
			}
		}
	}
}

// TestShardedCategoricalColumnWithEmptyShards: a categorical (string)
// output column must be skipped consistently even when a WHERE clause
// leaves some shards with zero rows — an empty shard cannot see the
// column's type, so the stitch reconciles the skip instead of erroring.
func TestShardedCategoricalColumnWithEmptyShards(t *testing.T) {
	ctx := context.Background()
	reg, err := benchfix.Registry()
	if err != nil {
		t.Fatal(err)
	}
	src := `
DECLARE PARAMETER @t AS SET (5);
SELECT DemandModel(@t, @t) AS demand, 'label' AS tag WHERE __world < 3;
GRAPH OVER @t EXPECT demand;
`
	scn, err := scenario.Compile(src, reg)
	if err != nil {
		t.Fatal(err)
	}
	pt := scn.DefaultPoint()
	want, err := NewEvaluator(scn, Options{Worlds: 10}).EvaluatePoint(ctx, pt)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := want.Columns["tag"]; ok {
		t.Fatal("single-range render should skip the categorical column")
	}
	if len(want.Columns["demand"]) != 3 {
		t.Fatalf("demand has %d rows, want 3", len(want.Columns["demand"]))
	}
	// With 4 shards of 10 worlds, only shard [0,3) has rows: the others
	// carry the tag column as empty while shard 0 skips it as categorical.
	got, err := NewEvaluator(scn, Options{Worlds: 10, Shards: 4}).EvaluatePoint(ctx, pt)
	if err != nil {
		t.Fatalf("sharded render with empty shards: %v", err)
	}
	assertSameColumns(t, 4, want, got)
	if _, ok := got.Columns["tag"]; ok {
		t.Error("sharded render should skip the categorical column too")
	}
}

// TestGroupedPlanEvaluatesOneRange: a grouped plan is not row-wise over the
// worlds, so it evaluates as one range whatever Shards, SketchOnly and
// Runner say — full columns bit-identical to Shards 1, no sketches, and no
// runner call.
func TestGroupedPlanEvaluatesOneRange(t *testing.T) {
	ctx := context.Background()
	reg, err := benchfix.Registry()
	if err != nil {
		t.Fatal(err)
	}
	src := `
DECLARE PARAMETER @t AS SET (5);
SELECT DemandModel(@t, @t) AS demand GROUP BY DemandModel(@t, @t);
GRAPH OVER @t EXPECT demand;
`
	scn, err := scenario.Compile(src, reg)
	if err != nil {
		t.Fatal(err)
	}
	if scn.Plan().Shardable() {
		t.Fatal("grouped plan reports Shardable")
	}
	pt := scn.DefaultPoint()
	want, err := NewEvaluator(scn, Options{Worlds: 200, Shards: 1}).EvaluatePoint(ctx, pt)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(want.Columns["demand"]); n == 0 {
		t.Fatal("grouped render has no demand rows")
	}
	var calls atomic.Int32
	counting := func(ctx context.Context, task ShardTask) (*ShardOutput, error) {
		calls.Add(1)
		return nil, fmt.Errorf("runner must not be called for a grouped plan")
	}
	got, err := NewEvaluator(scn, Options{Worlds: 200, Shards: 4, SketchOnly: true, Runner: counting}).EvaluatePoint(ctx, pt)
	if err != nil {
		t.Fatal(err)
	}
	assertSameColumns(t, 4, want, got)
	if got.Sketches != nil {
		t.Errorf("grouped one-range result carries %d sketches, want none", len(got.Sketches))
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("runner called %d times, want 0", n)
	}
}
