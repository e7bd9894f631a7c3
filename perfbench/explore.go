package main

import (
	"context"
	"fmt"
	"time"

	fp "fuzzyprophet"
	"fuzzyprophet/internal/obs"
)

// The explore sliders sweep the capacityplanning example on the paper's
// Figure 2 purchase grid (step 4, not the example's step 8): 588 pin sets,
// more than a run's walk can exhaust, so the share of new pin sets stays
// the same throughout a run however fast the machine is.
const (
	explorePurchaseTop  = 52
	explorePurchaseStep = 4
)

// exploreSampleOps is the timed op after which explore reads its live
// heap and its basis store's size. The walk finds new pin sets for the
// whole run and the session's store keeps every basis, so both would grow
// with the number of ops a run completes if read at the end of the phase.
const exploreSampleOps = 150

// runExplore is the paper's online mode: one analyst, closed loop, moving
// the capacityplanning sliders along a seeded walk. One op is SetParam of
// each moved slider followed by Render.
func runExplore(ctx context.Context, cfg config) (*result, error) {
	r := &result{}
	src, err := capacityGrid(explorePurchaseTop, explorePurchaseStep)
	if err != nil {
		return nil, err
	}
	seedBase := deriveSeed(cfg.seed, "explore.seedbase")
	walk := newExploreWalk(cfg.seed)
	frames := newFrameStore()
	var (
		sys  *fp.System
		scn  *fp.Scenario
		sess *fp.Session
	)
	setup := func() error {
		var err error
		if sys, err = fp.New(fp.WithDemoModels()); err != nil {
			return err
		}
		tc := time.Now()
		if scn, err = sys.Compile(src); err != nil {
			return err
		}
		r.compile = append(r.compile, time.Since(tc))
		sess, err = scn.OpenSession(fp.WithWorlds(cfg.size.exploreWorlds), fp.WithSeedBase(seedBase))
		return err
	}
	for i := 0; i < cfg.size.setupReps; i++ {
		if err := timeSetup(r, setup); err != nil {
			return nil, err
		}
	}
	// First ops on cold caches, each on a fresh set-up: set every slider
	// to the walk's start, exploreStart, then render. The last set-up's
	// session goes on to the timed phase.
	for i := 0; i < cfg.size.coldReps; i++ {
		if err := setup(); err != nil {
			return nil, err
		}
		t1 := time.Now()
		params := exploreStart.params()
		for _, name := range sliderNames {
			if err := sess.SetParam(name, params[name]); err != nil {
				return nil, err
			}
		}
		g, err := sess.Render(ctx)
		if err != nil {
			return nil, err
		}
		r.firstOp = append(r.firstOp, time.Since(t1))
		r.opDone(frameChecks(frames, pinsKey(exploreStart), g))
	}

	vgBefore := sys.VGInvocations()
	reuseBefore, storeBefore := sess.ReuseCounts(), sess.StoreStats()
	var (
		last    *fp.Graph
		storeAt fp.StoreStats
	)
	timedPhase(cfg, r, 1, func(_ int, sp *obs.Span) (int, string, error) {
		next, moved := walk.next()
		for _, s := range moved {
			name := sliderNames[s]
			psp := sp.Child("SetParam")
			err := sess.SetParam(name, next.params()[name])
			psp.End()
			if err != nil {
				return 0, "", err
			}
		}
		g, err := traceRender(ctx, sp, sess)
		if err != nil {
			return 0, "", err
		}
		last = g
		return framePoints, "", frameChecks(frames, pinsKey(next), g)
	}, sampleAt{exploreSampleOps, func() {
		r.liveHeap = liveHeap()
		storeAt = sess.StoreStats()
	}})
	if cfg.trace {
		ops := float64(len(r.lat))
		r.layers = map[string]float64{"vg.calls_per_op": float64(sys.VGInvocations()-vgBefore) / ops}
		reuseLayers(r.layers, reuseBefore, sess.ReuseCounts(), ops)
		storeLayers(r.layers, storeBefore, sess.StoreStats(), ops)
		r.layers["storage.bytes"] = float64(storeAt.UsedBytes)
		point := exploreStart.params()
		point["current"] = 26
		if err := replayLayers(ctx, r, cfg, scn, point, seedBase, cfg.size.exploreWorlds, last, capacityVGs); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func pinsKey(p pins) string { return fmt.Sprint(p) }

// frameChecks runs the per-frame output checks: the frame's shape, and
// bit-identity with the first frame rendered under the same key.
func frameChecks(fs *frameStore, key string, g *fp.Graph) error {
	if err := checkFrame(g); err != nil {
		return err
	}
	return fs.check(key, g)
}

// traceRender renders the session under a "Render" span, grafting the
// library's own span tree (fp.WithTrace) beneath it in a traced run.
func traceRender(ctx context.Context, sp *obs.Span, sess *fp.Session) (*fp.Graph, error) {
	if sp == nil {
		return sess.Render(ctx)
	}
	rsp := sp.Child("Render")
	defer rsp.End()
	rt := fp.NewRenderTrace()
	g, err := sess.Render(fp.WithTrace(ctx, rt))
	rt.End()
	rsp.Graft(rt.Tree())
	return g, err
}
