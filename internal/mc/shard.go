package mc

// World-range evaluation: the Monte Carlo loop is embarrassingly parallel
// across possible worlds, and world seeds are derived per (site, world) —
// so any worker, in-process or on another machine, reproduces exactly the
// samples the coordinator would have computed for a world range [lo, hi).
// EvaluatePoint splits a point's range [0, Worlds) into contiguous ranges
// (one, in the common case); each range simulates its sites (or slices
// coordinator-computed vectors), executes the scenario's compiled plan over
// a range-local worlds table, and returns output columns in world order.
// Several ranges are stitched back in range order — bit-identical to one
// range, because the compiled plan is row-wise over the worlds-major
// relation (sqlengine.Plan.Shardable). A sketch-only evaluation returns no
// sample vectors: each range folds its columns into mergeable per-column
// sketches (Welford moments + t-digest), which are merged in range order.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"

	"fuzzyprophet/internal/aggregate"
	"fuzzyprophet/internal/guide"
	"fuzzyprophet/internal/obs"
	"fuzzyprophet/internal/sqlengine"
	"fuzzyprophet/internal/storage"
)

// WorldRange is a half-open shard [Lo, Hi) of a render's world range.
type WorldRange struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Len returns the number of worlds in the range.
func (r WorldRange) Len() int { return r.Hi - r.Lo }

// SplitWorlds splits [0, n) into at most k contiguous, near-equal,
// non-empty ranges covering it in order.
func SplitWorlds(n, k int) []WorldRange {
	if n <= 0 {
		return nil
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	out := make([]WorldRange, 0, k)
	chunk := n / k
	rem := n % k
	lo := 0
	for i := 0; i < k; i++ {
		hi := lo + chunk
		if i < rem {
			hi++
		}
		out = append(out, WorldRange{Lo: lo, Hi: hi})
		lo = hi
	}
	return out
}

// SplitWorldsWeighted splits [0, n) into contiguous non-empty ranges in
// order, one per weight, sized proportionally to the weights — the
// worker-aware analog of SplitWorlds: a coordinator sizes each worker's
// shard by its observed throughput or advertised capacity. Invalid input
// (no weights, a non-finite, NaN or non-positive weight, or a zero sum)
// falls back to the equal split. When n < len(weights) only the first n
// ranges exist (each of one world), exactly like SplitWorlds.
func SplitWorldsWeighted(n int, weights []float64) []WorldRange {
	if n <= 0 {
		return nil
	}
	var sum float64
	for _, w := range weights {
		if math.IsNaN(w) || math.IsInf(w, 0) || w <= 0 {
			return SplitWorlds(n, len(weights))
		}
		sum += w
	}
	if len(weights) == 0 || sum <= 0 || math.IsInf(sum, 0) {
		return SplitWorlds(n, len(weights))
	}
	k := len(weights)
	if k > n {
		k = n
	}
	out := make([]WorldRange, 0, k)
	lo := 0
	var cum float64
	for i := 0; i < k; i++ {
		cum += weights[i]
		hi := int(math.Round(float64(n) * cum / sum))
		// Every range must be non-empty and the remaining ranges must each
		// get at least one world, no matter how skewed the weights are.
		if min := lo + 1; hi < min {
			hi = min
		}
		if max := n - (k - 1 - i); hi > max {
			hi = max
		}
		out = append(out, WorldRange{Lo: lo, Hi: hi})
		lo = hi
	}
	out[k-1].Hi = n
	return out
}

// ShardTask describes one shard evaluation: the parameter point, the
// render's total world count and seed base (any worker re-derives the exact
// per-world samples from these), and the assigned world range.
type ShardTask struct {
	Point    guide.Point
	Worlds   int
	SeedBase uint64
	Range    WorldRange
	// Index is the shard's position within the render's split. A remote
	// runner uses it for worker affinity: shard i was sized by worker i's
	// weight, so routing it there first keeps weighted splits meaningful.
	Index int
	// SketchOnly asks the shard for merged per-column sketches WITHOUT the
	// per-world sample vectors — O(compression) response payload instead of
	// O(worlds).
	SketchOnly bool
}

// ShardOutput is one shard's partial render: per-column sample vectors for
// the rows its world range produced (in world order; joins may yield more
// rows than worlds, WHERE fewer) or, for a sketch-only task, a mergeable
// sketch per column instead.
type ShardOutput struct {
	Columns  map[string][]float64
	Sketches map[string]aggregate.ColumnSketch
}

// ShardRunner evaluates one shard, typically on another machine (the HTTP
// fan-out in internal/server). Runners must be safe for concurrent calls.
// An error return makes the coordinator re-evaluate the shard locally.
type ShardRunner func(ctx context.Context, task ShardTask) (*ShardOutput, error)

// shardEnv is one pooled range-execution environment: its own catalog and
// engine (concurrent ranges must not share a worlds table), an owned worlds
// table over the range's worlds, and per-site simulation buffers for
// self-simulated ranges.
type shardEnv struct {
	catalog *sqlengine.Catalog
	engine  *sqlengine.Engine
	columns []*sqlengine.Column
	worlds  *sqlengine.ColTable
	siteBuf [][]float64
}

func (ev *Evaluator) newShardEnv() (*shardEnv, error) {
	cat := sqlengine.NewCatalog()
	for _, t := range ev.scn.StaticTables {
		cat.Put(t)
	}
	columns, worlds, err := ownedWorldsTable(ev.worldCols)
	if err != nil {
		return nil, err
	}
	return &shardEnv{
		catalog: cat,
		engine:  sqlengine.New(cat),
		columns: columns,
		worlds:  worlds,
		siteBuf: make([][]float64, len(ev.scn.Sites)),
	}, nil
}

func (ev *Evaluator) acquireEnv() (*shardEnv, error) {
	ev.envMu.Lock()
	if n := len(ev.envs); n > 0 {
		env := ev.envs[n-1]
		ev.envs = ev.envs[:n-1]
		ev.envMu.Unlock()
		return env, nil
	}
	ev.envMu.Unlock()
	return ev.newShardEnv()
}

func (ev *Evaluator) releaseEnv(env *shardEnv) {
	ev.envMu.Lock()
	ev.envs = append(ev.envs, env)
	ev.envMu.Unlock()
}

// siteRange returns env's buffer for site si sized for m worlds.
func (env *shardEnv) siteRange(si, m int) []float64 {
	if cap(env.siteBuf[si]) < m {
		env.siteBuf[si] = make([]float64, m)
	}
	env.siteBuf[si] = env.siteBuf[si][:m]
	return env.siteBuf[si]
}

// shardInputKey encodes everything a self-simulated shard input vector
// depends on beyond the site: the argument key, the seed base and the
// world range.
func shardInputKey(argKey string, seedBase uint64, lo, hi int) string {
	return argKey + "|" + strconv.FormatUint(seedBase, 10) + "|" +
		strconv.Itoa(lo) + ":" + strconv.Itoa(hi)
}

// runShardLocal evaluates one world range in process. ord holds the
// range's world ordinals (len task.Range.Len(), absolute values). When
// siteSamples is non-nil it holds full [0, Worlds) per-site vectors
// (computed by the coordinator, reuse-aware) and the range just slices
// them; otherwise the range simulates its own worlds from the task's seeds
// on up to workers goroutines. A sketch-only task folds every output column
// into a mergeable sketch and returns no sample vectors; any other task
// returns the sample vectors alone.
func (ev *Evaluator) runShardLocal(ctx context.Context, task ShardTask, siteSamples [][]float64, ord []int64, workers int) (_ *ShardOutput, err error) {
	// A panic in a plan kernel fails this range's evaluation, not the
	// process, whether the range runs inline or on a fan-out goroutine.
	defer recoverToError(&err, "shard")
	env, err := ev.acquireEnv()
	if err != nil {
		return nil, err
	}
	defer ev.releaseEnv(env)

	sp := obs.SpanFrom(ctx)
	lo, hi := task.Range.Lo, task.Range.Hi
	if siteSamples != nil {
		for si := range ev.scn.Sites {
			env.columns[si+1].SetFloats(siteSamples[si][lo:hi])
		}
	} else if err := ev.simulateInto(ctx, sp, env, task, workers); err != nil {
		return nil, err
	}

	msp := sp.Child("worlds-materialize")
	env.columns[0].SetInts(ord)
	env.catalog.PutColumns(env.worlds)
	msp.End()

	xsp := sp.Child("plan-execute")
	var counters *sqlengine.ExecCounters
	if xsp != nil {
		counters = &sqlengine.ExecCounters{}
	}
	out, err := ev.scn.Plan().ExecCounted(env.engine, task.Point, counters)
	if err != nil {
		return nil, fmt.Errorf("mc: executing scenario plan for worlds [%d,%d): %w", lo, hi, err)
	}
	if out == nil {
		return nil, fmt.Errorf("mc: scenario plan produced no result for worlds [%d,%d)", lo, hi)
	}
	defer out.Release()
	recordExecCounters(xsp, counters)
	xsp.End()

	// Output samples convert column-wise without boxing a row. Purely
	// categorical (string) columns are carried in the SQL result but have
	// no distribution to aggregate, so they are skipped; NULLs or mixed
	// types in a numeric column are errors.
	result := &ShardOutput{}
	if task.SketchOnly {
		result.Sketches = make(map[string]aggregate.ColumnSketch, len(ev.scn.OutputCols))
	} else {
		result.Columns = make(map[string][]float64, len(ev.scn.OutputCols))
	}
	for _, colName := range ev.scn.OutputCols {
		col, err := out.Column(colName)
		if err != nil {
			return nil, err
		}
		if col.Len() > 0 && col.AllStrings() {
			continue
		}
		fs, err := col.Float64s()
		if err != nil {
			return nil, fmt.Errorf("mc: output column %q: %w", colName, err)
		}
		if task.SketchOnly {
			result.Sketches[colName] = aggregate.FromSamples(fs).Sketch()
		} else {
			result.Columns[colName] = fs
		}
	}
	return result, nil
}

// simulateInto fills env's worlds-table site columns for the task's range
// under a simulate span: each site's samples come from the shard-input
// cache when configured and warm, otherwise from fresh VG invocations.
func (ev *Evaluator) simulateInto(ctx context.Context, sp *obs.Span, env *shardEnv, task ShardTask, workers int) error {
	ssp := sp.Child("simulate")
	defer ssp.End()
	var inputsBefore storage.Stats
	if ssp != nil && ev.opts.ShardInputs != nil {
		inputsBefore = ev.opts.ShardInputs.Stats()
	}
	var cacheHits int64
	lo, hi := task.Range.Lo, task.Range.Hi
	for si := range ev.scn.Sites {
		site := &ev.scn.Sites[si]
		args, key, err := site.ArgValues(task.Point)
		if err != nil {
			return err
		}
		// Worker-mode shard-input cache: a worker re-rendering the same
		// point serves the range's samples from the store (RAM or spill
		// tier) instead of re-invoking the VG-Function per world. The key
		// pins everything the samples depend on — args, seed base and world
		// range — so a hit is bit-identical by determinism.
		var cacheKey string
		if ev.opts.ShardInputs != nil {
			cacheKey = shardInputKey(key, task.SeedBase, lo, hi)
			if cached, ok := ev.opts.ShardInputs.Get(site.ID, cacheKey); ok && len(cached) == hi-lo {
				cacheHits++
				env.columns[si+1].SetFloats(cached)
				continue
			}
		}
		vec := env.siteRange(si, hi-lo)
		if err := ev.simulate(ctx, site, args, lo, hi, vec, workers); err != nil {
			return err
		}
		if ev.opts.ShardInputs != nil {
			ev.opts.ShardInputs.Put(site.ID, cacheKey, vec)
		}
		env.columns[si+1].SetFloats(vec)
	}
	if ssp != nil {
		ssp.SetInt("worlds", int64(hi-lo))
		ssp.SetInt("sites", int64(len(ev.scn.Sites)))
		if cacheHits > 0 {
			ssp.SetInt("shard_input_cache_hits", cacheHits)
		}
		if ev.opts.ShardInputs != nil {
			noteSpillDeltas(ssp, inputsBefore, ev.opts.ShardInputs.Stats())
		}
	}
	return nil
}

// stitchShards concatenates the ranges' partial columns in range (= world)
// order and returns nil sketches; with sketchOnly no sample vectors came
// back, so it merges the ranges' sketches in range order instead (a
// sketch's Count stands in for its range's row count) and returns nil
// columns. A column that SOME ranges skipped as categorical (all-string)
// while others carried it empty — an empty range cannot see the column's
// type — is dropped, like every categorical column; a range carrying
// numeric rows for a column another range deemed categorical is a genuine
// type mix and errors (converting the whole column would error on it too).
func stitchShards(outs []*ShardOutput, sketchOnly bool) (map[string][]float64, map[string]*aggregate.ColumnStats, error) {
	names := make(map[string]bool)
	total := make(map[string]int64)
	inAll := make(map[string]int)
	for _, out := range outs {
		if sketchOnly {
			for col, sk := range out.Sketches {
				names[col] = true
				total[col] += sk.Count
				inAll[col]++
			}
			continue
		}
		for col, fs := range out.Columns {
			names[col] = true
			total[col] += int64(len(fs))
			inAll[col]++
		}
	}
	var columns map[string][]float64
	var sketches map[string]*aggregate.ColumnStats
	if sketchOnly {
		sketches = make(map[string]*aggregate.ColumnStats, len(names))
	} else {
		columns = make(map[string][]float64, len(names))
	}
	for col := range names {
		if inAll[col] < len(outs) {
			if total[col] > 0 {
				return nil, nil, fmt.Errorf("mc: column %q is categorical in some shards but numeric in others", col)
			}
			continue // categorical: every range with rows skipped it
		}
		if !sketchOnly {
			full := make([]float64, 0, total[col])
			for _, out := range outs {
				full = append(full, out.Columns[col]...)
			}
			columns[col] = full
			continue
		}
		parts := make([]aggregate.ColumnSketch, 0, len(outs))
		for _, out := range outs {
			parts = append(parts, out.Sketches[col])
		}
		sketches[col] = aggregate.MergeSketches(parts)
	}
	return columns, sketches, nil
}

// shardTasks returns one task per world range of the point's render.
func (ev *Evaluator) shardTasks(pt guide.Point, ranges []WorldRange, sketchOnly bool) []ShardTask {
	tasks := make([]ShardTask, len(ranges))
	for i, r := range ranges {
		tasks[i] = ShardTask{
			Point:      pt,
			Worlds:     ev.opts.Worlds,
			SeedBase:   ev.opts.SeedBase,
			Range:      r,
			Index:      i,
			SketchOnly: sketchOnly,
		}
	}
	return tasks
}

// fanOut evaluates every task concurrently, each on its own goroutine under
// a "shard" child of sp, and returns the outputs and errors in task order.
// With a runner each task is sent to it first; a task whose runner call
// fails before ctx is done is re-evaluated locally, so a failed worker
// costs latency, not the render. Local ranges self-simulate with the
// evaluator's Workers budget shared between them.
func (ev *Evaluator) fanOut(ctx context.Context, sp *obs.Span, tasks []ShardTask, siteSamples [][]float64, runner ShardRunner) ([]*ShardOutput, []error) {
	workers := max(1, ev.opts.Workers/len(tasks))
	ev.ordRange(0, tasks[len(tasks)-1].Range.Hi) // grow once, before any goroutine reads
	outs := make([]*ShardOutput, len(tasks))
	errs := make([]error, len(tasks))
	var wg sync.WaitGroup
	for i := range tasks {
		task := tasks[i]
		ord := ev.ordRange(task.Range.Lo, task.Range.Hi)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// A panic in a range (bad VG, kernel bug) fails this range only;
			// wg.Done is registered first so it runs after the recovery.
			defer recoverToError(&errs[i], "shard")
			// The shard span rides on ctx so the local stage spans (and a
			// remote worker's grafted subtree) land under it.
			ssp := sp.Child("shard")
			defer ssp.End()
			ssp.SetInt("lo", int64(task.Range.Lo))
			ssp.SetInt("hi", int64(task.Range.Hi))
			sctx := obs.With(ctx, ssp)
			if runner != nil {
				ssp.SetStr("exec", "remote")
				out, err := runner(sctx, task)
				if err == nil {
					outs[i] = out
					return
				}
				if ctx.Err() != nil {
					errs[i] = err
					return
				}
				ssp.SetStr("exec", "local-fallback")
			}
			outs[i], errs[i] = ev.runShardLocal(sctx, task, siteSamples, ord, workers)
		}(i)
	}
	wg.Wait()
	return outs, errs
}

// firstError returns the first non-nil error of errs, or nil.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// harvestDegraded turns a deadline-cut fan-out into a partial result: the
// sketches of every completed shard are merged in range order — a full
// range, which carries sample vectors instead, is folded into sketches
// first — and res is flagged Degraded with the completed world count.
// Returns false — leaving res untouched — when nothing completed, when any
// shard failed with a panic (deterministic bugs must surface, not
// degrade), or when the completed sketches cannot be merged. Errors racing
// the deadline (cancelled transports, cut simulations) are subsumed by the
// degraded result.
func (ev *Evaluator) harvestDegraded(res *PointResult, tasks []ShardTask, outs []*ShardOutput, errs []error, psp *obs.Span) bool {
	var done []*ShardOutput
	completed := 0
	for i, out := range outs {
		var perr *PanicError
		if errs[i] != nil && errors.As(errs[i], &perr) {
			return false
		}
		if out == nil || errs[i] != nil {
			continue
		}
		if len(out.Sketches) == 0 {
			sk := make(map[string]aggregate.ColumnSketch, len(out.Columns))
			for col, fs := range out.Columns {
				sk[col] = aggregate.FromSamples(fs).Sketch()
			}
			out = &ShardOutput{Sketches: sk}
		}
		done = append(done, out)
		completed += tasks[i].Range.Len()
	}
	if completed == 0 {
		return false
	}
	msp := psp.Child("sketch-merge")
	_, sketches, err := stitchShards(done, true)
	msp.End()
	if err != nil || len(sketches) == 0 {
		return false
	}
	psp.SetInt("degraded", 1)
	psp.SetInt("worlds_completed", int64(completed))
	res.Sketches = sketches
	res.Degraded = true
	res.WorldsCompleted = completed
	return true
}

// EvaluateShard evaluates ONLY the worlds in shard (within [0,
// Options.Worlds)) at one parameter point — the worker half of distributed
// rendering: an HTTP worker receives (scenario, point, seed base, range),
// self-simulates the range from per-(site, world) seeds and returns the
// partial columns for the coordinator to stitch — or, with
// Options.SketchOnly, only the merged per-column sketches. The shard is
// itself split across Options.Shards in-process ranges and fanned out like
// EvaluatePoint's, so a worker saturates its own cores. Fingerprint reuse
// is not consulted (partial vectors are not valid bases). Requires a
// shardable scenario plan.
//
// Like EvaluatePoint, EvaluateShard is not safe for concurrent calls on
// one Evaluator.
func (ev *Evaluator) EvaluateShard(ctx context.Context, pt guide.Point, shard WorldRange) (*ShardOutput, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if shard.Lo < 0 || shard.Hi > ev.opts.Worlds || shard.Lo >= shard.Hi {
		return nil, fmt.Errorf("mc: shard [%d,%d) outside world range [0,%d)", shard.Lo, shard.Hi, ev.opts.Worlds)
	}
	if !ev.scn.Plan().Shardable() {
		return nil, fmt.Errorf("mc: scenario plan is not shardable (grouped or fallback query)")
	}
	ranges := SplitWorlds(shard.Len(), ev.opts.Shards)
	for i := range ranges {
		ranges[i].Lo += shard.Lo
		ranges[i].Hi += shard.Lo
	}
	sp := obs.SpanFrom(ctx)
	outs, errs := ev.fanOut(ctx, sp, ev.shardTasks(pt, ranges, ev.opts.SketchOnly), nil, nil)
	if err := firstError(errs); err != nil {
		return nil, err
	}
	msp := sp.Child("sketch-merge")
	columns, sketches, err := stitchShards(outs, ev.opts.SketchOnly)
	msp.End()
	if err != nil {
		return nil, err
	}
	out := &ShardOutput{Columns: columns}
	if sketches != nil {
		out.Sketches = make(map[string]aggregate.ColumnSketch, len(sketches))
		for col, cs := range sketches {
			out.Sketches[col] = cs.Sketch()
		}
	}
	return out, nil
}
