package main

import (
	"context"
	"sync"
	"time"

	fp "fuzzyprophet"
	"fuzzyprophet/internal/obs"
	"fuzzyprophet/internal/rng"
)

// The sweep runs the capacityplanning example's OPTIMIZE on a coarser
// purchase grid (the fpbench E3 sweep: 3 features × 4 × 4 purchase dates ×
// 53 weeks at step 16) and the pricing example's OPTIMIZE beside it. The
// bounds below are the examples' WHERE clauses, which the checks re-apply.
const (
	sweepPurchaseTop = 48
	// overloadThreshold is capacityplanning's MAX(EXPECT overload) bound.
	overloadThreshold = 0.05
	// unitsFloor is pricing's MIN(EXPECT units) bound.
	unitsFloor = 80000
)

// sweepOp is one sweep op's inputs and chosen groups, kept for the
// re-evaluation checks after the timed phase.
type sweepOp struct {
	seedBase             uint64
	capacity, pricing    *fp.OptimizeResult
	capStats, priceStats fp.StoreStats
}

// runSweep is the paper's offline mode: each op runs the capacity OPTIMIZE
// over the purchase grid, with the pricing OPTIMIZE beside it on a second
// goroutine, both on fresh reuse caches whose seed base derives from the
// workload seed and the op's index.
func runSweep(ctx context.Context, cfg config) (*result, error) {
	r := &result{}
	src, err := capacityGrid(sweepPurchaseTop, cfg.size.sweepStep)
	if err != nil {
		return nil, err
	}
	pricingSQL, err := exampleSQL("pricing")
	if err != nil {
		return nil, err
	}
	seeds := rng.NewSeedSequence(cfg.seed, "sweep.seedbase")
	var (
		sys           *fp.System
		capScn, price *fp.Scenario
	)
	setup := func() error {
		var err error
		if sys, err = fp.New(fp.WithDemoModels()); err != nil {
			return err
		}
		tc := time.Now()
		if capScn, err = sys.Compile(src); err != nil {
			return err
		}
		r.compile = append(r.compile, time.Since(tc))
		price, err = sys.Compile(pricingSQL)
		return err
	}
	for i := 0; i < cfg.size.setupReps; i++ {
		if err := timeSetup(r, setup); err != nil {
			return nil, err
		}
	}

	var (
		mu  sync.Mutex
		ops []sweepOp
	)
	op := func(sp *obs.Span) (int, error) {
		mu.Lock()
		seedBase := seeds.At(len(ops))
		mu.Unlock()
		o := sweepOp{seedBase: seedBase}
		var wg sync.WaitGroup
		var capErr, priceErr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			o.pricing, o.priceStats, priceErr = traceOptimize(ctx, sp, price, cfg.size.sweepWorlds, seedBase)
		}()
		o.capacity, o.capStats, capErr = traceOptimize(ctx, sp, capScn, cfg.size.sweepWorlds, seedBase)
		wg.Wait()
		if capErr != nil {
			return 0, capErr
		}
		if priceErr != nil {
			return 0, priceErr
		}
		// Keep only what the checks and layer figures read. Kept whole, the
		// results would grow live_heap_mb with the number of ops a run
		// completes, so a faster system would read as a memory regression.
		o.capacity.Rows, o.pricing.Rows = nil, nil
		mu.Lock()
		ops = append(ops, o)
		mu.Unlock()
		return o.capacity.PointsEvaluated + o.pricing.PointsEvaluated, nil
	}

	// Every op starts cold; the first few in the process are timed apart.
	for i := 0; i < cfg.size.sweepColdReps; i++ {
		t0 := time.Now()
		_, err := op(nil)
		r.firstOp = append(r.firstOp, time.Since(t0))
		if err != nil {
			return nil, err
		}
		r.opDone(nil)
	}
	cold := len(ops)

	vgBefore := sys.VGInvocations()
	timedPhase(cfg, r, 1, func(_ int, sp *obs.Span) (int, string, error) {
		points, err := op(sp)
		return points, "", err
	})
	vgCalls := sys.VGInvocations() - vgBefore
	r.liveHeap = liveHeap()

	for _, o := range ops {
		if err := checkSweep(ctx, capScn, price, cfg.size.sweepWorlds, o); err != nil {
			r.lateFailure(err)
		}
	}
	if cfg.trace {
		timed := ops[cold:]
		n := float64(len(timed))
		r.layers = map[string]float64{"vg.calls_per_op": float64(vgCalls) / n}
		var evaluated, explored float64
		var store fp.StoreStats
		reuse := map[string]int{}
		for _, o := range timed {
			evaluated += float64(o.capacity.PointsEvaluated + o.pricing.PointsEvaluated)
			explored += float64(o.capacity.GroupsExplored + o.pricing.GroupsExplored)
			for _, res := range []*fp.OptimizeResult{o.capacity, o.pricing} {
				for k, v := range res.ReuseCounts {
					reuse[k] += v
				}
			}
			for _, st := range []fp.StoreStats{o.capStats, o.priceStats} {
				store.Hits += st.Hits
				store.Misses += st.Misses
				store.Evicted += st.Evicted
				store.UsedBytes += st.UsedBytes
			}
		}
		// Every op starts on fresh caches: the sums are the changes.
		reuseLayers(r.layers, nil, reuse, n)
		storeLayers(r.layers, fp.StoreStats{}, store, n)
		r.layers["storage.bytes"] = float64(store.UsedBytes) / n
		r.layers["optimize.points_evaluated"] = evaluated / n
		r.layers["optimize.groups_explored"] = explored / n
		if err := replayLayers(ctx, r, cfg, nil, nil, ops[0].seedBase, cfg.size.sweepWorlds, nil,
			append(append([]vgCall{}, capacityVGs...), pricingVGs...)); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// traceOptimize runs scn's OPTIMIZE on a fresh reuse cache, under an
// "Optimize" span with the library's trace grafted beneath it when sp is
// non-nil.
func traceOptimize(ctx context.Context, sp *obs.Span, scn *fp.Scenario, worlds int, seedBase uint64) (*fp.OptimizeResult, fp.StoreStats, error) {
	cache, err := fp.NewReuseCache()
	if err != nil {
		return nil, fp.StoreStats{}, err
	}
	opts := []fp.EvalOption{fp.WithWorlds(worlds), fp.WithSeedBase(seedBase), fp.WithReuseCache(cache)}
	if sp == nil {
		res, err := scn.Optimize(ctx, nil, opts...)
		return res, cache.StoreStats(), err
	}
	osp := sp.Child("Optimize")
	defer osp.End()
	rt := fp.NewRenderTrace()
	res, err := scn.Optimize(fp.WithTrace(ctx, rt), nil, opts...)
	rt.End()
	osp.Graft(rt.Tree())
	return res, cache.StoreStats(), err
}

// checkSweep re-evaluates each OPTIMIZE's chosen group with reuse off and
// the op's seed base: the group must still meet its WHERE clause.
func checkSweep(ctx context.Context, capScn, price *fp.Scenario, worlds int, o sweepOp) error {
	opts := []fp.EvalOption{fp.WithWorlds(worlds), fp.WithSeedBase(o.seedBase), fp.WithoutReuse()}
	if len(o.capacity.Best) == 0 {
		return checkf("capacity sweep (seed base %#x) chose no group", o.seedBase)
	}
	g := o.capacity.Best[0].Group
	if toInt(g["purchase1"]) > toInt(g["purchase2"]) {
		return checkf("capacity sweep chose purchase1 %v > purchase2 %v", g["purchase1"], g["purchase2"])
	}
	points := make([]map[string]any, framePoints)
	for w := range points {
		points[w] = map[string]any{"current": w, "feature": g["feature"], "purchase1": g["purchase1"], "purchase2": g["purchase2"]}
	}
	res, err := capScn.EvaluateBatch(ctx, points, opts...)
	if err != nil {
		return err
	}
	for _, p := range res.Points {
		if m := p.Summaries["overload"].Mean; m >= overloadThreshold {
			return checkf("capacity group %v infeasible without reuse: week %v overload %.4f >= %v",
				g, p.Point["current"], m, overloadThreshold)
		}
	}

	if len(o.pricing.Best) == 0 {
		return checkf("pricing sweep (seed base %#x) chose no price", o.seedBase)
	}
	pg := o.pricing.Best[0].Group
	points = make([]map[string]any, 26)
	for w := range points {
		points[w] = map[string]any{"week": w, "price": pg["price"]}
	}
	if res, err = price.EvaluateBatch(ctx, points, opts...); err != nil {
		return err
	}
	for _, p := range res.Points {
		if m := p.Summaries["units"].Mean; m <= unitsFloor {
			return checkf("pricing group %v infeasible without reuse: week %v units %.0f <= %v",
				pg, p.Point["week"], m, unitsFloor)
		}
	}
	return nil
}

func toInt(v any) int64 {
	switch x := v.(type) {
	case int64:
		return x
	case int:
		return int64(x)
	case float64:
		return int64(x)
	}
	return 0
}
