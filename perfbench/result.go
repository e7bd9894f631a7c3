package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"time"

	"fuzzyprophet/internal/obs"
)

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
}

// metricDef declares a metric the benchmark reports: its unit and which
// direction is better. BENCHMARK.json lists the same metrics in the same
// order (TestMetricNames checks it).
type metricDef struct {
	name, unit, better string
}

// endToEndDefs are the metrics a user of the system sees, reported by every
// workload's untraced run. Each is nonzero on every workload.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower"},          // median time until the workload can send its first op (system build, compile/register, server start)
	{"first_op_ms", "ms", "lower"},     // median latency of the first op on cold caches
	{"op_p50_ms", "ms", "lower"},       // median op latency, request to response
	{"ops_per_s", "1/s", "higher"},     // ops completed per second of the timed phase
	{"points_per_s", "1/s", "higher"},  // parameter points evaluated per second of the timed phase
	{"alloc_mb_per_op", "MB", "lower"}, // heap bytes allocated per op, process-wide
	{"live_heap_mb", "MB", "lower"},    // live heap after forced GCs at the end of the timed phase (explore: after its 150th timed op)
}

// perLayerDefs are the traced run's per-layer metrics. Every workload
// reports all of them; a layer the workload does not exercise reads 0.
// "per op" figures divide by the traced ops; ratios name their base.
var perLayerDefs = []metricDef{
	{"scenario.compile_ms", "ms", "lower"},              // median System.Compile time
	{"online.render_self_ms", "ms", "lower"},            // per render: render span minus its point spans (per-point aggregation)
	{"mc.point_ms", "ms", "lower"},                      // mean point span
	{"mc.simulate_ms", "ms", "lower"},                   // per op: simulate spans (VG sampling and fingerprint reuse)
	{"mc.materialize_ms", "ms", "lower"},                // per op: worlds-materialize spans
	{"mc.sketch_merge_ms", "ms", "lower"},               // per op: sketch-merge spans
	{"vg.calls_per_op", "count", "lower"},               // change of System.VGInvocations per op
	{"vg.ns_per_call", "ns", "lower"},                   // replayed VG-Function call through vg.Registry.Invoke
	{"core.computed", "count", "lower"},                 // per op: site evaluations simulated afresh
	{"core.identity", "count", "higher"},                // per op: site evaluations reused through an identity mapping
	{"core.affine", "count", "higher"},                  // per op: site evaluations reused through an affine mapping
	{"core.cached", "count", "higher"},                  // per op: site evaluations served from the exact basis cache
	{"core.reuse_ratio", "ratio", "higher"},             // reused site evaluations / all site evaluations
	{"storage.hit_rate", "ratio", "higher"},             // basis-store hits / (hits + misses) in the timed phase
	{"storage.bytes", "B", "lower"},                     // basis-store bytes after a fixed number of timed ops (sweep: per op, its fresh caches)
	{"storage.evictions", "count", "lower"},             // per op: basis-store evictions
	{"sqlengine.exec_ms", "ms", "lower"},                // per op: plan-execute spans
	{"sqlengine.rows_out_per_point", "count", "lower"},  // plan-execute rows_out / plan-execute spans
	{"aggregate.us_per_point", "us", "lower"},           // replayed aggregation of one point's output columns
	{"optimize.points_evaluated", "count", "lower"},     // per op: OptimizeResult.PointsEvaluated
	{"optimize.groups_explored", "count", "lower"},      // per op: OptimizeResult.GroupsExplored
	{"optimize.self_ms", "ms", "lower"},                 // per op: Optimize trace root minus its point spans
	{"server.request_self_ms", "ms", "lower"},           // per op: client latency minus the server's trace root, over all requests
	{"server.encode_us_per_frame", "us", "lower"},       // replayed json.Marshal of one fp.Graph frame
	{"server.coalesced_ratio", "ratio", "higher"},       // coalesced renders / all render requests (from /metrics)
	{"server.shard_exchanges_per_op", "count", "lower"}, // coordinator-worker exchanges seen by the proxy per op
	{"server.shard_ms", "ms", "lower"},                  // per op: shard-fanout spans
	{"server.worker_shard_ms", "ms", "lower"},           // per op: worker-shard span trees returned by the workers
	{"server.shard_transport_ms", "ms", "lower"},        // per op: shard spans minus their worker-shard trees
	{"server.shard_req_bytes_full", "B", "lower"},       // mean request body of full-vector shard exchanges
	{"server.shard_req_bytes_sketch", "B", "lower"},     // mean request body of sketch-only shard exchanges
	{"server.shard_resp_bytes_full", "B", "lower"},      // mean response body of full-vector shard exchanges
	{"server.shard_resp_bytes_sketch", "B", "lower"},    // mean response body of sketch-only shard exchanges
	{"server.hedge_ratio", "ratio", "lower"},            // hedged duplicates / shard requests (from /metrics)
	{"server.hedge_win_ratio", "ratio", "higher"},       // hedge wins / hedged duplicates (from /metrics)
	{"server.retry_ratio", "ratio", "lower"},            // shard retries / shard requests (from /metrics)
	{"server.resend_ratio", "ratio", "lower"},           // 409 full re-sends / shard requests (from /metrics)
	{"op.release_p50_ms", "ms", "lower"},                // untraced: median featurerelease PUT params + GET render (serve, fanout)
	{"op.fleet_p50_ms", "ms", "lower"},                  // untraced: median serverfleet PUT params + GET render (serve, fanout)
	{"op.evaluate_p50_ms", "ms", "lower"},               // untraced: median POST /evaluate batch (serve, fanout)
	{"go.gc_cycles_per_op", "count", "lower"},           // GC cycles per op
	{"go.gc_pause_ms_per_op", "ms", "lower"},            // stop-the-world GC pause per op
	{"go.alloc_objects_per_op", "count", "lower"},       // heap objects allocated per op
	{"go.cpu_util", "ratio", "lower"},                   // process CPU time / wall time of the timed phase
	{"trace.ops", "count", "higher"},                    // ops in the traced phase
	{"trace.unattributed_frac", "ratio", "lower"},       // op time in no named layer / op time
	{"trace.overhead_frac", "ratio", "lower"},           // (untraced ops_per_s - traced ops_per_s) / untraced ops_per_s
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validMetricName reports whether name is a legal metric name: it starts
// with a letter or digit and has at most 64 letters, digits, '_', '.', '-'.
func validMetricName(name string) bool { return metricNameRE.MatchString(name) }

// result accumulates one run's measurements and check outcomes.
type result struct {
	attempted int
	failed    int
	failures  []string

	setup   []time.Duration
	firstOp []time.Duration
	compile []time.Duration
	// lat holds every timed op's latency; points counts the parameter
	// points those ops evaluated; elapsed is the timed phase's wall time.
	lat     []time.Duration
	byKind  map[string][]time.Duration
	points  int64
	elapsed time.Duration
	proc    procDelta
	// liveHeap is the live heap after forced GCs at the end of the timed
	// phase (on explore, after its exploreSampleOps-th timed op).
	liveHeap uint64

	// Traced runs only: one span tree per op plus the layer figures
	// collected from counters and replays.
	trees  []*obs.Node
	layers map[string]float64

	extra   []metric
	metrics []metric
}

// opDone records one op's outcome. A non-nil err is a failed op — an error
// from the system or a failed output check.
func (r *result) opDone(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

// lateFailure records a failed check on an op already counted as attempted
// (checks run after the timed phase).
func (r *result) lateFailure(err error) {
	r.opDone(err)
	r.attempted--
}

// addKind records a timed op's latency under its kind ("" is not kept).
func (r *result) addKind(kind string, lat time.Duration) {
	if kind == "" {
		return
	}
	if r.byKind == nil {
		r.byKind = map[string][]time.Duration{}
	}
	r.byKind[kind] = append(r.byKind[kind], lat)
}

func (r *result) correct() bool { return r.failed == 0 && r.attempted > 0 }

func durations(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d)
	}
	return out
}

// endToEnd computes the untraced metric set. The op count, the highest
// tail percentile the rule allows (p90 needs 100 ops, p99 1000) and
// failed_frac are printed but not part of the JSON metrics: a tail is
// undefined on short runs, and failed_frac is 0 on a correct run and
// already carried by "attempted" and "failed".
func (r *result) endToEnd() []metric {
	ops := float64(len(r.lat))
	secs := r.elapsed.Seconds()
	lat := durations(r.lat)
	p50, _ := percentile(lat, 0.5)
	out := []metric{
		{"setup_s", median(durations(r.setup)) / 1e9, "s"},
		{"first_op_ms", median(durations(r.firstOp)) / 1e6, "ms"},
		{"op_p50_ms", p50 / 1e6, "ms"},
		{"ops_per_s", ops / secs, "1/s"},
		{"points_per_s", float64(r.points) / secs, "1/s"},
		{"alloc_mb_per_op", float64(r.proc.allocBytes) / ops / 1e6, "MB"},
		{"live_heap_mb", float64(r.liveHeap) / 1e6, "MB"},
	}
	r.extra = append(r.extra, metric{"op_samples", ops, "count"})
	for _, k := range sortedKinds(r.byKind) {
		r.extra = append(r.extra,
			metric{"op_samples." + k, float64(len(r.byKind[k])), "count"},
			metric{"op_p50_ms." + k, median(durations(r.byKind[k])) / 1e6, "ms"})
	}
	for _, tail := range []struct {
		name string
		q    float64
	}{{"op_p999_ms", 0.999}, {"op_p99_ms", 0.99}, {"op_p90_ms", 0.9}} {
		if v, ok := percentile(lat, tail.q); ok {
			r.extra = append(r.extra, metric{tail.name, v / 1e6, "ms"})
			break
		}
	}
	if r.attempted > 0 {
		r.extra = append(r.extra, metric{"failed_frac", float64(r.failed) / float64(r.attempted), "ratio"})
	}
	return out
}

// perLayer computes the traced metric set; base is the untraced run of the
// same seed, for the tracing overhead.
func (r *result) perLayer(base *result) []metric {
	ops := float64(len(r.lat))
	l := r.layers
	if l == nil {
		l = map[string]float64{}
	}
	l["go.gc_cycles_per_op"] = float64(r.proc.gcCycles) / ops
	l["go.gc_pause_ms_per_op"] = r.proc.gcPause.Seconds() * 1e3 / ops
	l["go.alloc_objects_per_op"] = float64(r.proc.allocObjects) / ops
	l["go.cpu_util"] = r.proc.cpu.Seconds() / r.elapsed.Seconds()
	l["trace.ops"] = ops
	l["scenario.compile_ms"] = median(durations(r.compile)) / 1e6
	for k, lat := range base.byKind {
		l["op."+k+"_p50_ms"] = median(durations(lat)) / 1e6
	}
	var shares []string
	for k, v := range analyzeTrees(r.trees) {
		if strings.HasPrefix(k, "layer.") {
			shares = append(shares, k)
		}
		l[k] = v
	}
	// The attribution shares are printed for reading, not reported.
	sort.Strings(shares)
	for _, k := range shares {
		r.extra = append(r.extra, metric{k, l[k], "ratio"})
	}
	baseRate := float64(len(base.lat)) / base.elapsed.Seconds()
	l["trace.overhead_frac"] = (baseRate - ops/r.elapsed.Seconds()) / baseRate
	out := make([]metric, 0, len(perLayerDefs))
	for _, d := range perLayerDefs {
		v := l[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out = append(out, metric{d.name, v, d.unit})
	}
	return out
}

func sortedKinds(m map[string][]time.Duration) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// checkf formats an output-check failure.
func checkf(format string, args ...any) error {
	return fmt.Errorf("check: "+format, args...)
}
