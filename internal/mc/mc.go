// Package mc implements the Monte Carlo executor: it turns one parameter
// point of a compiled scenario into per-world output samples by invoking
// VG-Functions (or re-mapping stored basis distributions via fingerprints),
// materializing the possible-worlds table, and running the Query
// Generator's pure TSQL through the relational engine.
//
// This is the inner loop of the paper's architecture cycle: Guide →
// instances → Query Generator → TSQL → engine → Storage Manager → Result
// Aggregator.
package mc

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"

	"fuzzyprophet/internal/aggregate"
	"fuzzyprophet/internal/core"
	"fuzzyprophet/internal/guide"
	"fuzzyprophet/internal/obs"
	"fuzzyprophet/internal/rng"
	"fuzzyprophet/internal/scenario"
	"fuzzyprophet/internal/sqlengine"
	"fuzzyprophet/internal/storage"
	"fuzzyprophet/internal/value"
)

// Options configures an Evaluator.
type Options struct {
	// Worlds is the number of Monte Carlo worlds per point (default 1000).
	Worlds int
	// SeedBase seeds the fixed world sequence (default 20110612, the
	// paper's demo week). Changing it changes every sample.
	SeedBase uint64
	// Workers bounds VG-invocation parallelism (default: GOMAXPROCS).
	Workers int
	// Shards splits each point's world range [0, Worlds) into this many
	// contiguous ranges evaluated concurrently, whose partial column
	// vectors are stitched back in world order (default 1: one range,
	// evaluated inline). Because world seeds derive per (site, world), the
	// stitched result is bit-identical for every shard count. A plan that
	// is not Shardable always evaluates as one range.
	Shards int
	// Runner, when non-nil, evaluates shards remotely (the HTTP fan-out in
	// internal/server). A shard whose runner call fails is re-evaluated
	// locally by the coordinator, so a dying worker degrades throughput,
	// not correctness. With a Runner set, fingerprint reuse is bypassed
	// (workers re-derive samples from seeds).
	Runner ShardRunner
	// Reuse enables fingerprint-based computation reuse when non-nil.
	Reuse *Reuse
	// ShardInputs, when non-nil, caches self-simulated shard input vectors
	// keyed by (site, args, seed base, world range) — worker mode's analog
	// of the basis store. A worker repeatedly rendering the same scenario
	// points serves shard inputs from the cache (spilling out-of-core when
	// the store is configured with a spill dir) instead of re-invoking
	// VG-Functions; determinism of (seed base, site, world) seeds makes the
	// cached vectors bit-identical to fresh simulation.
	ShardInputs *storage.Store
	// SketchOnly makes evaluations return ONLY merged per-column sketches
	// (Welford moments + t-digest) — PointResult.Columns stays nil — so
	// remote shard responses are O(compression) instead of O(worlds).
	// Without it no range builds a sketch: full evaluations return sample
	// vectors alone, and a worker's full response carries no sketches.
	// Consumers read Expect/StdDev/quantiles/CI95 from the sketches within
	// the t-digest error bound. A plan that is not Shardable evaluates as
	// one range with full columns and no sketches.
	SketchOnly bool
	// ShardWeights, when non-nil with a remote Runner, supplies one
	// positive weight per shard slot just before each point's split; shard
	// ranges are sized proportionally (SplitWorldsWeighted). The
	// coordinator uses per-worker latency EWMAs / advertised capacities so
	// slow workers get small ranges. Invalid weights fall back to the
	// equal split.
	ShardWeights func() []float64
	// AllowDegraded permits a sharded evaluation cut short by its context
	// deadline to return a partial result instead of the context error:
	// the sketches of every shard that completed before the cut are merged
	// and the result carries Degraded=true with WorldsCompleted < Worlds.
	// Columns stays nil on a degraded result (missing world ranges cannot
	// be stitched), so consumers read the sketches. Degradation granularity
	// is one shard; if no shard completed, the context error is returned as
	// usual, and a shard that failed with a recovered panic always fails
	// the point (deterministic bugs must surface, not degrade).
	AllowDegraded bool
}

// DefaultSeedBase is the seed base used when Options.SeedBase is zero:
// the paper's demo week.
const DefaultSeedBase = 20110612

// WithDefaults returns a copy of o with zero fields replaced by defaults —
// the effective options an Evaluator built from o will run with.
func (o Options) WithDefaults() Options {
	if o.Worlds <= 0 {
		o.Worlds = 1000
	}
	if o.SeedBase == 0 {
		o.SeedBase = DefaultSeedBase
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Shards <= 0 {
		o.Shards = 1
	}
	return o
}

// ReuseKind records how a site's sample vector was obtained.
type ReuseKind uint8

// Reuse kinds.
const (
	// Computed: fresh VG invocations, one per world.
	Computed ReuseKind = iota
	// CachedExact: the exact (site, args) pair was already stored.
	CachedExact
	// Identity: re-mapped from a basis with an identity mapping.
	Identity
	// Affine: re-mapped from a basis through an affine mapping.
	Affine
)

func (k ReuseKind) String() string {
	switch k {
	case Computed:
		return "computed"
	case CachedExact:
		return "cached"
	case Identity:
		return "identity"
	case Affine:
		return "affine"
	default:
		return fmt.Sprintf("ReuseKind(%d)", uint8(k))
	}
}

// Reuse is the fingerprint-reuse state shared across point evaluations: the
// fingerprint index plus the basis-distribution store. Safe for concurrent
// use.
type Reuse struct {
	cfg   core.Config
	index *core.Index
	store *storage.Store

	mu        sync.Mutex
	counts    map[ReuseKind]int
	seedBase  uint64
	seedBound bool
}

// NewReuse returns a reuse engine with the given fingerprint configuration
// and basis-store options. With storeOpts.SpillDir set, the basis store
// spills evicted bases to memory-mapped column files and faults them back
// on demand, so the working set may exceed the RAM budget without falling
// back to re-simulation.
func NewReuse(cfg core.Config, storeOpts storage.Options) (*Reuse, error) {
	ix, err := core.NewIndex(cfg)
	if err != nil {
		return nil, err
	}
	store, err := storage.Open(storeOpts)
	if err != nil {
		return nil, fmt.Errorf("mc: opening basis store: %w", err)
	}
	return &Reuse{
		cfg:    cfg,
		index:  ix,
		store:  store,
		counts: make(map[ReuseKind]int),
	}, nil
}

// Close releases the basis store's spill tier (mapped files, manifest).
// Sample slices previously returned by evaluations may reference mapped
// memory, so Close only after in-flight renders finish. A no-op for
// RAM-only stores.
func (r *Reuse) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.store.Close()
}

// Config returns the fingerprint configuration.
func (r *Reuse) Config() core.Config { return r.cfg }

// Index exposes the fingerprint index (read access for visualization).
func (r *Reuse) Index() *core.Index { return r.index }

// StoreStats returns the basis store's counters.
func (r *Reuse) StoreStats() storage.Stats { return r.store.Stats() }

// Counts returns a snapshot of per-kind outcome counts.
func (r *Reuse) Counts() map[ReuseKind]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[ReuseKind]int, len(r.counts))
	for k, v := range r.counts {
		out[k] = v
	}
	return out
}

// ResetCounts zeroes the outcome counters (not the stored bases).
func (r *Reuse) ResetCounts() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counts = make(map[ReuseKind]int)
}

func (r *Reuse) record(k ReuseKind) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counts[k]++
}

// install records a freshly computed basis and its fingerprint as one
// atomic step under the engine lock — the same lock Save holds while
// capturing the store and index, so a snapshot can never contain an index
// entry whose basis it lacks (the store write always lands in the same
// critical section as its index entry).
func (r *Reuse) install(site, key string, samples []float64, fp core.Fingerprint) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.store.Put(site, key, samples)
	r.index.Put(site, key, fp)
	r.counts[Computed]++
}

// Evaluator evaluates scenario points.
type Evaluator struct {
	scn       *scenario.Scenario
	opts      Options
	worldCols []string

	// ord holds world ordinals 0..cap-1, filled to a high-water mark and
	// shared read-only by every world range's env.
	ord []int64

	// envs pools per-range execution environments (own catalog + engine +
	// worlds table over a world sub-range).
	envMu sync.Mutex
	envs  []*shardEnv
}

// worldsSchema returns the worlds-table column names: the world ordinal
// followed by one column per VG call site.
func worldsSchema(scn *scenario.Scenario) []string {
	cols := make([]string, 0, len(scn.Sites)+1)
	cols = append(cols, scenario.WorldColumn)
	for _, s := range scn.Sites {
		cols = append(cols, s.Column)
	}
	return cols
}

// ownedWorldsTable builds a worlds ColTable whose column headers the owner
// repoints per evaluation (SetInts/SetFloats).
func ownedWorldsTable(cols []string) ([]*sqlengine.Column, *sqlengine.ColTable, error) {
	columns := make([]*sqlengine.Column, len(cols))
	columns[0] = sqlengine.IntColumn(nil)
	for i := 1; i < len(columns); i++ {
		columns[i] = sqlengine.FloatColumn(nil)
	}
	ct, err := sqlengine.NewColTable(scenario.WorldsTable, cols, columns)
	return columns, ct, err
}

// NewEvaluator returns an evaluator for the compiled scenario. The
// scenario's static side tables are installed into each execution
// environment's catalog.
func NewEvaluator(scn *scenario.Scenario, opts Options) *Evaluator {
	return &Evaluator{
		scn:       scn,
		opts:      opts.WithDefaults(),
		worldCols: worldsSchema(scn),
	}
}

// ordRange returns world ordinals [lo, hi) as a slice of the shared,
// fill-once ordinal vector, growing it to hi when needed. Callers only read
// the slice; growth happens on the coordinating goroutine before range
// goroutines start.
func (ev *Evaluator) ordRange(lo, hi int) []int64 {
	if hi > len(ev.ord) {
		grown := make([]int64, hi)
		copy(grown, ev.ord)
		for i := len(ev.ord); i < hi; i++ {
			grown[i] = int64(i)
		}
		ev.ord = grown
	}
	return ev.ord[lo:hi]
}

// Reconfigure retargets the evaluator at a new (worlds, seed base, sketch
// mode) triple without discarding its warmed state: the pooled execution
// envs (catalog, engine, worlds table, simulation buffers) and the grown
// ordinal vector carry over. This is what makes a per-fingerprint evaluator
// freelist worthwhile on a shard worker: consecutive requests for the same
// scenario differ only in these render parameters, and rebuilding an
// Evaluator per request repays the whole warm-up every shard. The sketch
// mode means what Options.SketchOnly means. Zero worlds/seedBase take the
// defaults. Not safe to call concurrently with an evaluation.
func (ev *Evaluator) Reconfigure(worlds int, seedBase uint64, sketchOnly bool) {
	o := ev.opts
	o.Worlds = worlds
	o.SeedBase = seedBase
	o.SketchOnly = sketchOnly
	ev.opts = o.WithDefaults()
}

// Options returns the effective options.
func (ev *Evaluator) Options() Options { return ev.opts }

// Scenario returns the compiled scenario.
func (ev *Evaluator) Scenario() *scenario.Scenario { return ev.scn }

// WorldSeed returns the fixed seed for (site, world i) under the given
// seed base. World seeds are disjoint from fingerprint seeds by
// construction (different derivation labels). Exported so harnesses (the
// fpbench engine benchmark) can materialize a worlds table identical to
// the executor's.
func WorldSeed(seedBase uint64, siteID string, i int) uint64 {
	return rng.Derive(seedBase, "world."+siteID, uint64(i)).Uint64()
}

func (ev *Evaluator) worldSeed(siteID string, i int) uint64 {
	return WorldSeed(ev.opts.SeedBase, siteID, i)
}

// PointResult holds one point's per-world outputs.
type PointResult struct {
	// Point is the evaluated parameter point.
	Point guide.Point
	// Columns maps each output column to its per-world sample vector.
	Columns map[string][]float64
	// Worlds is the number of worlds evaluated.
	Worlds int
	// SiteOutcome records, per site ID, how its samples were obtained.
	SiteOutcome map[string]ReuseKind
	// Sketches holds the merged per-column mergeable aggregates (moments +
	// t-digest) of a sketch-only or degraded evaluation; nil whenever
	// Columns is set. ColumnStats reads whichever of the two is present.
	Sketches map[string]*aggregate.ColumnStats
	// Degraded marks a partial result: the context deadline expired before
	// the full world budget and Options.AllowDegraded harvested the shards
	// completed so far. Columns is nil and Sketches cover only
	// WorldsCompleted of the requested Worlds.
	Degraded bool
	// WorldsCompleted is the number of worlds whose samples contributed to
	// a degraded result's sketches; zero when Degraded is false.
	WorldsCompleted int
}

// ColumnStats returns the point's per-column aggregates: the merged
// Sketches of a sketch-only or degraded result — moments exact, quantiles
// within the t-digest error bound — or otherwise each sample vector folded
// with aggregate.FromSamples, so a caller that reads only moments never
// builds a t-digest. Categorical string columns are already excluded.
func (p *PointResult) ColumnStats() map[string]*aggregate.ColumnStats {
	if p.Sketches != nil {
		return p.Sketches
	}
	stats := make(map[string]*aggregate.ColumnStats, len(p.Columns))
	for col, samples := range p.Columns {
		stats[col] = aggregate.FromSamples(samples)
	}
	return stats
}

// FreshSites returns how many sites required fresh VG simulation.
func (p *PointResult) FreshSites() int {
	n := 0
	for _, k := range p.SiteOutcome {
		if k == Computed {
			n++
		}
	}
	return n
}

// batchWorlds is how many worlds are simulated between context checks: a
// cancelled context stops a simulation within one batch, not at the end of
// the full world loop.
const batchWorlds = 64

// PanicError reports a panic recovered inside the executor's simulation or
// shard goroutines. A panicking VG-Function (or a bug in a plan kernel)
// fails its own evaluation with this error instead of crashing the process
// — the point of recovery is that one bad render must not take down the
// in-flight renders sharing the server.
type PanicError struct {
	// Stage names where the panic was caught ("simulate", "shard").
	Stage string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("mc: panic in %s: %v", e.Stage, e.Value)
}

// recoverToError converts a panic in scope into a *PanicError assigned to
// *dst (unless *dst is already set). Use as: defer recoverToError(&err, "stage").
func recoverToError(dst *error, stage string) {
	if r := recover(); r != nil {
		perr := &PanicError{Stage: stage, Value: r, Stack: debug.Stack()}
		if *dst == nil {
			*dst = perr
		}
	}
}

// EvaluatePoint runs the full pipeline for one parameter point. The world
// range [0, Worlds) is split into Options.Shards contiguous ranges; each
// range simulates its sites (or slices the reuse-aware vectors computed
// once for the whole point), materializes its worlds table and executes the
// compiled plan, and the ranges' output columns are stitched back in world
// order. Because world seeds derive per (site, world), the result is
// bit-identical for every split. A plan that is not Shardable, a one-world
// render and Shards <= 1 evaluate a single range inline, with no fan-out.
// Only a SketchOnly evaluation builds sketches.
//
// The context is checked between sites and once per world-batch during
// simulation, so cancellation aborts a long evaluation promptly; the first
// error returned after cancellation wraps ctx.Err().
//
// An Evaluator is not safe for concurrent EvaluatePoint calls (its ordinal
// vector grows in place); share the Reuse engine and give each goroutine
// its own Evaluator instead.
func (ev *Evaluator) EvaluatePoint(ctx context.Context, pt guide.Point) (*PointResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := ev.opts.Worlds
	// The point span groups this point's stage spans under the render's
	// active span; with no active span every obs call below is a nil no-op.
	psp := obs.SpanFrom(ctx).Child("point")
	defer psp.End()
	psp.SetInt("worlds", int64(n))
	res := &PointResult{
		Point:       pt,
		Worlds:      n,
		SiteOutcome: make(map[string]ReuseKind, len(ev.scn.Sites)),
	}
	// Only a row-wise plan over more than one world splits its range, goes
	// to a remote runner or answers with sketches alone.
	split := ev.scn.Plan().Shardable() && n > 1
	remote := split && ev.opts.Runner != nil
	sketchOnly := split && ev.opts.SketchOnly
	ranges := []WorldRange{{Lo: 0, Hi: n}}
	if split {
		ranges = SplitWorlds(n, ev.opts.Shards)
		// Worker-aware sizing: per-worker weights (latency EWMAs, advertised
		// capacities) size remote ranges so a slow worker gets a small one.
		if remote && ev.opts.ShardWeights != nil {
			if ws := ev.opts.ShardWeights(); len(ws) > 0 {
				ranges = SplitWorldsWeighted(n, ws)
			}
		}
	}
	tasks := ev.shardTasks(pt, ranges, sketchOnly)

	// Site samples: with reuse the coordinator computes full reuse-aware
	// vectors once and every range slices them; otherwise each range
	// simulates its own worlds. Remote workers always re-derive samples
	// from seeds, so a runner bypasses reuse.
	var siteSamples [][]float64
	if ev.opts.Reuse != nil && !remote {
		var err error
		if siteSamples, err = ev.reuseSamples(ctx, psp, pt, res.SiteOutcome); err != nil {
			return nil, err
		}
	} else {
		for si := range ev.scn.Sites {
			res.SiteOutcome[ev.scn.Sites[si].ID] = Computed
		}
	}

	var outs []*ShardOutput
	if len(tasks) == 1 && !remote {
		out, err := ev.runShardLocal(obs.With(ctx, psp), tasks[0], siteSamples, ev.ordRange(0, n), ev.opts.Workers)
		if err != nil {
			return nil, err
		}
		if !sketchOnly {
			res.Columns = out.Columns
			return res, nil
		}
		outs = []*ShardOutput{out}
	} else {
		fsp := psp.Child("shard-fanout")
		fsp.SetInt("shards", int64(len(tasks)))
		if sketchOnly {
			fsp.SetInt("sketch_only", 1)
		}
		// Several ranges imply a shardable plan, so a configured runner is
		// always the remote one.
		var errs []error
		outs, errs = ev.fanOut(ctx, fsp, tasks, siteSamples, ev.opts.Runner)
		fsp.End()
		if err := firstError(errs); err != nil {
			// Deadline mid-fan-out: with AllowDegraded, the ranges that DID
			// complete are still a statistically honest (if wider-CI) answer
			// — merge their sketches instead of failing the render.
			if ev.opts.AllowDegraded && ctx.Err() != nil && ev.harvestDegraded(res, tasks, outs, errs, psp) {
				return res, nil
			}
			return nil, err
		}
	}
	msp := psp.Child("sketch-merge")
	columns, sketches, err := stitchShards(outs, sketchOnly)
	msp.End()
	if err != nil {
		return nil, err
	}
	res.Columns = columns
	res.Sketches = sketches
	return res, nil
}

// reuseSamples computes every site's full [0, Worlds) sample vector through
// the reuse engine under a simulate span, recording each site's outcome.
func (ev *Evaluator) reuseSamples(ctx context.Context, psp *obs.Span, pt guide.Point, outcome map[string]ReuseKind) ([][]float64, error) {
	ssp := psp.Child("simulate")
	defer ssp.End()
	var spillBefore storage.Stats
	if ssp != nil {
		spillBefore = ev.opts.Reuse.store.Stats()
	}
	siteSamples := make([][]float64, len(ev.scn.Sites))
	for si := range ev.scn.Sites {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		site := &ev.scn.Sites[si]
		samples, kind, err := ev.samplesFor(ctx, site, pt)
		if err != nil {
			return nil, err
		}
		siteSamples[si] = samples
		outcome[site.ID] = kind
	}
	if ssp != nil {
		ssp.SetInt("sites", int64(len(ev.scn.Sites)))
		recordOutcomes(ssp, outcome)
		noteSpillDeltas(ssp, spillBefore, ev.opts.Reuse.store.Stats())
	}
	return siteSamples, nil
}

// probeCount returns k, the number of world-seed probes used as the
// fingerprint, clamped so probing never exceeds half the full simulation.
func (ev *Evaluator) probeCount() int {
	k := ev.opts.Reuse.cfg.Length
	if max := ev.opts.Worlds / 2; k > max {
		k = max
	}
	if k < 2 {
		k = 2
	}
	return k
}

// samplesFor produces the full per-world sample vector for one site at one
// point through the reuse engine (Options.Reuse must be set).
//
// The fingerprint of a point is its output under the first k *world* seeds
// — a prefix of the very sample vector the point would produce. This keeps
// the paper's "fixed sequence of random inputs" definition while making
// probes double as validation on real output worlds: a computed point's
// fingerprint costs nothing extra, and a re-mapped vector is exact at every
// probed index (the probes overwrite the mapped values).
func (ev *Evaluator) samplesFor(ctx context.Context, site *scenario.Site, pt guide.Point) ([]float64, ReuseKind, error) {
	args, key, err := site.ArgValues(pt)
	if err != nil {
		return nil, Computed, err
	}
	r := ev.opts.Reuse
	if err := r.bindSeedBase(ev.opts.SeedBase); err != nil {
		return nil, Computed, err
	}

	// Exact cache hit: this (site, args) pair was already evaluated.
	if cached, ok := r.store.Get(site.ID, key); ok {
		if len(cached) >= ev.opts.Worlds {
			r.record(CachedExact)
			return cached[:ev.opts.Worlds], CachedExact, nil
		}
		// Stored run was smaller than requested; fall through to recompute.
	}

	// Probe the target at the first k world seeds (k VG invocations).
	k := ev.probeCount()
	probes := make([]float64, k)
	if err := ev.simulate(ctx, site, args, 0, k, probes, ev.opts.Workers); err != nil {
		return nil, Computed, fmt.Errorf("mc: fingerprinting %s%s: %w", site.ID, key, err)
	}
	fp := core.Fingerprint{Outputs: probes}
	for i, v := range probes {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, Computed, fmt.Errorf("mc: fingerprinting %s%s: non-finite probe %g at world %d", site.ID, key, v, i)
		}
	}

	// Try to re-map from an explored basis.
	if match, ok := r.index.FindMapping(site.ID, fp); ok {
		if basis, ok := r.store.Get(site.ID, match.BasisKey); ok && len(basis) >= ev.opts.Worlds {
			mapped, err := match.Mapping.Apply(basis[:ev.opts.Worlds])
			if err == nil {
				// The probed worlds are exact; splice them in.
				copy(mapped[:k], probes)
				// Cache the mapped vector for exact re-hits, but do NOT
				// register it as a basis: all mappings stay single-hop from
				// computed points, so affine error cannot compound.
				r.store.Put(site.ID, key, mapped)
				kind := Identity
				if match.Mapping.Kind == core.MappingAffine {
					kind = Affine
				}
				r.record(kind)
				return mapped, kind, nil
			}
		}
		// Basis evicted or unusable: simulate below.
	}

	// Simulate the remaining worlds; the probes are worlds 0..k-1.
	samples := make([]float64, ev.opts.Worlds)
	copy(samples, probes)
	if err := ev.simulate(ctx, site, args, k, ev.opts.Worlds, samples[k:], ev.opts.Workers); err != nil {
		return nil, Computed, err
	}
	r.install(site.ID, key, samples, fp)
	return samples, Computed, nil
}

// simulate invokes the site's VG-Function for worlds [from, to) on up to
// workers goroutines, writing world i's sample to dst[i-from]. The context
// is checked once per batchWorlds worlds in every goroutine, so
// cancellation stops a long simulation within one world-batch.
func (ev *Evaluator) simulate(ctx context.Context, site *scenario.Site, args []value.Value, from, to int, dst []float64, workers int) error {
	if n := to - from; workers > n {
		workers = n
	}
	run := func(lo, hi int) (err error) {
		// A panicking VG-Function fails this simulation, not the process.
		defer recoverToError(&err, "simulate")
		for i := lo; i < hi; i++ {
			if (i-lo)%batchWorlds == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			v, err := ev.scn.Registry.Invoke(site.Name, ev.worldSeed(site.ID, i), args)
			if err != nil {
				return fmt.Errorf("mc: %s world %d: %w", site.ID, i, err)
			}
			f, err := v.AsFloat()
			if err != nil {
				return fmt.Errorf("mc: %s world %d: %w", site.ID, i, err)
			}
			dst[i-from] = f
		}
		return nil
	}
	if workers <= 1 {
		return run(from, to)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	chunk := (to - from + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := from + w*chunk
		hi := lo + chunk
		if hi > to {
			hi = to
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			var err error
			defer func() {
				if err != nil {
					errCh <- err
				}
			}()
			// run recovers VG panics itself, but the boundary defer is what
			// guarantees a panic anywhere in this goroutine fails the
			// simulation, not the process (errCh is buffered per worker).
			defer recoverToError(&err, "simulate")
			err = run(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
	}
	return nil
}
