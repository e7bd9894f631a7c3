package main

import (
	"context"
	"encoding/json"
	"time"

	fp "fuzzyprophet"
	"fuzzyprophet/internal/aggregate"
	"fuzzyprophet/internal/benchfix"
	"fuzzyprophet/internal/mc"
	"fuzzyprophet/internal/value"
)

// Aggregation, JSON encoding and single VG calls have no span of their
// own. The traced run times them by replaying captured inputs through the
// layers' exported functions.

// vgCall is one VG-Function a workload's scenario calls, with arguments
// typical of its grid.
type vgCall struct {
	name string
	args func(i int) []value.Value
}

var (
	demandVG = vgCall{"DemandModel", func(i int) []value.Value {
		return []value.Value{value.Int(int64(i % 53)), value.Int(36)}
	}}
	capacityVGs = []vgCall{demandVG, {"CapacityModel", func(i int) []value.Value {
		return []value.Value{value.Int(int64(i % 53)), value.Int(16), value.Int(32)}
	}}}
	pricingVGs = []vgCall{{"UnitsModel", func(i int) []value.Value {
		return []value.Value{value.Int(int64(i % 26)), value.Int(10)}
	}}, {"RevenueModel", func(i int) []value.Value {
		return []value.Value{value.Int(int64(i % 26)), value.Int(10)}
	}}}
	demandVGs = []vgCall{demandVG}
)

// replayLayers fills aggregate.us_per_point (one point's output columns of
// scn at point, folded and read the way a frame's series ask), the frame's
// JSON encoding time, and vg.ns_per_call over the given VG-Functions with
// mc.WorldSeed seeds. A nil frame skips the first two.
func replayLayers(ctx context.Context, r *result, cfg config, scn *fp.Scenario, point map[string]any,
	seedBase uint64, worlds int, frame *fp.Graph, vgs []vgCall) error {
	reps := cfg.size.replayReps
	if frame != nil {
		shard, err := scn.EvaluateShard(ctx, point, worlds, seedBase, fp.WorldShard{Lo: 0, Hi: worlds})
		if err != nil {
			return err
		}
		cols := make([]string, 0, len(shard.Columns))
		for c := range shard.Columns {
			cols = append(cols, c)
		}
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			ps := aggregate.NewPointStats(cols)
			for _, c := range cols {
				if err := ps.AddSamples(c, shard.Columns[c]); err != nil {
					return err
				}
			}
			for _, s := range frame.Series {
				if cs, ok := ps.Column(s.Column); ok {
					if _, err := cs.Metric(s.Agg); err != nil {
						return err
					}
				}
			}
		}
		r.layers["aggregate.us_per_point"] = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(reps)

		t0 = time.Now()
		for i := 0; i < reps; i++ {
			if _, err := json.Marshal(frame); err != nil {
				return err
			}
		}
		r.layers["server.encode_us_per_frame"] = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(reps)
	}

	reg, err := benchfix.Registry()
	if err != nil {
		return err
	}
	calls := reps * 50
	t0 := time.Now()
	for _, f := range vgs {
		for i := 0; i < calls; i++ {
			if _, err := reg.Invoke(f.name, mc.WorldSeed(seedBase, f.name, i), f.args(i)); err != nil {
				return err
			}
		}
	}
	r.layers["vg.ns_per_call"] = float64(time.Since(t0).Nanoseconds()) / float64(calls*len(vgs))
	return nil
}

// reuseLayers fills the core.* figures from the change in a reuse engine's
// per-outcome site-evaluation counts over ops timed ops.
func reuseLayers(l map[string]float64, before, after map[string]int, ops float64) {
	var total, computed float64
	for _, k := range []string{"computed", "identity", "affine", "cached"} {
		d := float64(after[k] - before[k])
		l["core."+k] = d / ops
		total += d
		if k == "computed" {
			computed = d
		}
	}
	if total > 0 {
		l["core.reuse_ratio"] = (total - computed) / total
	}
}

// storeLayers fills storage.hit_rate and storage.evictions from the change
// in a basis store's counters over ops timed ops. storage.bytes, a level
// rather than a count, is read by each workload after a fixed amount of
// work.
func storeLayers(l map[string]float64, before, after fp.StoreStats, ops float64) {
	if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits+misses > 0 {
		l["storage.hit_rate"] = float64(hits) / float64(hits+misses)
	}
	l["storage.evictions"] = float64(after.Evicted-before.Evicted) / ops
}
