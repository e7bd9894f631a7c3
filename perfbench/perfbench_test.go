package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	fp "fuzzyprophet"
	"fuzzyprophet/internal/obs"
)

// tinySizes shrinks every workload so a smoke run takes about a second.
var tinySizes = sizes{
	exploreWorlds: 50,
	sweepWorlds:   40,
	sweepStep:     24,
	serveWorlds:   50,
	fanoutWorlds:  50,
	setupReps:     2,
	coldReps:      1,
	httpColdReps:  1,
	sweepColdReps: 1,
	sessions:      2,
	evalPoints:    2,
	replayReps:    2,
}

// TestSmoke runs every workload at tiny size, untraced and traced, with
// all output checks on, and checks that each run reports its full metric
// set with finite values.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: name, seed: 7, seconds: 0.3, trace: traced, size: tinySizes, traceDir: t.TempDir()}
			res, err := runWorkload(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.correct() {
				t.Fatalf("%s traced=%v: %d of %d ops failed: %v", name, traced, res.failed, res.attempted, res.failures)
			}
			defs := endToEndDefs
			if traced {
				defs = perLayerDefs
			}
			got := map[string]float64{}
			for _, m := range res.metrics {
				got[m.name] = m.value
			}
			if len(got) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(got), len(defs))
			}
			for _, d := range defs {
				v, ok := got[d.name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", name, traced, d.name)
				case math.IsNaN(v) || math.IsInf(v, 0):
					t.Errorf("%s traced=%v: metric %s = %v", name, traced, d.name, v)
				case !traced && v <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, v)
				}
			}
			if traced && got["trace.unattributed_frac"] > 0.1 {
				t.Errorf("%s: %.1f%% of op time unattributed", name, 100*got["trace.unattributed_frac"])
			}
		}
	}
}

var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestMetricNames validates every metric name and unit, and checks that
// BENCHMARK.json declares exactly the metrics the program reports.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEndDefs...), perLayerDefs...) {
		if !validMetricName(d.name) {
			t.Errorf("invalid metric name %q", d.name)
		}
		if seen[d.name] {
			t.Errorf("metric %q declared twice", d.name)
		}
		seen[d.name] = true
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s: invalid unit %q", d.name, d.unit)
		}
		if d.better != "higher" && d.better != "lower" {
			t.Errorf("metric %s: better = %q", d.name, d.better)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "é", strings.Repeat("a", 65)} {
		if validMetricName(bad) {
			t.Errorf("validMetricName(%q) = true", bad)
		}
	}
	for _, good := range []string{"a", "9a", "mc.point_ms", "go.cpu-util", strings.Repeat("a", 64)} {
		if !validMetricName(good) {
			t.Errorf("validMetricName(%q) = false", good)
		}
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonDef struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []jsonDef `json:"end_to_end"`
		PerLayer  []jsonDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []jsonDef, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json %s: %d metrics, program reports %d", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("BENCHMARK.json %s[%d] = %s %s %s, program reports %s %s %s",
					kind, i, g.Name, g.Unit, g.Better, w.name, w.unit, w.better)
			}
		}
	}
	compare("end_to_end", bench.EndToEnd, endToEndDefs)
	compare("per_layer", bench.PerLayer, perLayerDefs)
	for _, d := range bench.EndToEnd {
		if d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25 {
			t.Errorf("BENCHMARK.json %s: bound must be in (0, 0.25]", d.Name)
		}
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != "explore,sweep,serve,fanout" {
		t.Errorf("BENCHMARK.json workloads = %v", names)
	}
	for _, n := range names {
		if _, ok := workloads[n]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not a program workload", n)
		}
	}
}

// TestPercentileRule: a tail percentile needs minTail samples beyond it;
// the median needs one sample.
func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	cases := []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{0, 0.5, false, 0},
		{1, 0.5, true, 1},
		{4, 0.5, true, 2},
		{99, 0.9, false, 0},
		{100, 0.9, true, 90},
		{999, 0.99, false, 0},
		{1000, 0.99, true, 990},
		{19, 0.5, true, 10},
		{100, 0.1, true, 10},
		{99, 0.1, false, 0},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.q)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestGeneratorDeterminism: each workload's op sequence is a pure function
// of the seed — the same seed replays it, another seed changes it.
func TestGeneratorDeterminism(t *testing.T) {
	walk := func(seed uint64) []pins {
		w := newExploreWalk(seed)
		out := []pins{exploreStart}
		for i := 0; i < 1800; i++ {
			p, moved := w.next()
			if len(moved) == 0 {
				t.Fatalf("seed %d move %d moves no slider", seed, i)
			}
			out = append(out, p)
		}
		return out
	}
	a, b, c := walk(1), walk(1), walk(2)
	if !equalSeq(a, b) {
		t.Error("explore walk differs between two runs of seed 1")
	}
	if equalSeq(a, c) {
		t.Error("explore walk is the same for seeds 1 and 2")
	}
	// One new pin set per block until all 588 are seen.
	seen := map[pins]bool{a[0]: true}
	for i, p := range a[1:] {
		fresh := !seen[p]
		seen[p] = true
		if want := i%exploreBlock == 0 && i/exploreBlock < 587; fresh != want {
			t.Fatalf("move %d: new pin set = %v, want %v", i, fresh, want)
		}
	}
	if len(seen) != 588 {
		t.Errorf("walk saw %d pin sets, want 588", len(seen))
	}

	fullScript := func(seed uint64, client int) []httpOp {
		s := newHTTPScript(seed, client, 4, 3)
		out := make([]httpOp, 200)
		for i := range out {
			out[i] = s.next()
		}
		return out
	}
	x, y, z := fullScript(1, 0), fullScript(1, 0), fullScript(2, 0)
	if !sameOps(x, y) {
		t.Error("HTTP script differs between two runs of seed 1")
	}
	if sameOps(x, z) || sameOps(x, fullScript(1, 1)) {
		t.Error("HTTP script does not depend on the seed and the client")
	}
	evals := 0
	for _, op := range x {
		if op.evaluate {
			evals++
		}
	}
	if evals != len(x)/evaluateEvery {
		t.Errorf("%d evaluate batches in %d ops, want %d", evals, len(x), len(x)/evaluateEvery)
	}
	if deriveSeed(1, "explore.seedbase") != deriveSeed(1, "explore.seedbase") ||
		deriveSeed(1, "explore.seedbase") == deriveSeed(2, "explore.seedbase") {
		t.Error("the explore seed base is not a function of the seed")
	}
}

// TestPerOpLayers: counts are changes over the timed phase divided by its
// ops, and ratios are taken over the same changes.
func TestPerOpLayers(t *testing.T) {
	l := map[string]float64{}
	before := map[string]int{"computed": 100, "cached": 1000}
	after := map[string]int{"computed": 110, "identity": 20, "affine": 10, "cached": 1060}
	reuseLayers(l, before, after, 10)
	want := map[string]float64{"core.computed": 1, "core.identity": 2, "core.affine": 1, "core.cached": 6, "core.reuse_ratio": 0.9}
	for k, v := range want {
		if math.Abs(l[k]-v) > 1e-12 {
			t.Errorf("%s = %v, want %v", k, l[k], v)
		}
	}
	storeLayers(l, fp.StoreStats{Hits: 500, Misses: 500, Evicted: 7}, fp.StoreStats{Hits: 590, Misses: 510, Evicted: 27}, 10)
	if l["storage.hit_rate"] != 0.9 || l["storage.evictions"] != 2 {
		t.Errorf("storage.hit_rate = %v, storage.evictions = %v; want 0.9, 2", l["storage.hit_rate"], l["storage.evictions"])
	}
}

// TestSampleAt: a sample runs once, after its op and outside its latency,
// and a phase too short to reach it runs it at the end.
func TestSampleAt(t *testing.T) {
	for _, c := range []struct {
		at      int
		seconds float64
	}{{3, 0.05}, {1 << 30, 0.01}} {
		r := &result{}
		calls, seenAt := 0, 0
		timedPhase(config{seconds: c.seconds}, r, 1, func(int, *obs.Span) (int, string, error) {
			time.Sleep(time.Millisecond)
			return 1, "k", nil
		}, sampleAt{c.at, func() { calls++; seenAt = len(r.lat) }})
		if calls != 1 {
			t.Errorf("at=%d: sample ran %d times, want once", c.at, calls)
		}
		if c.at <= len(r.lat) && seenAt < c.at {
			t.Errorf("at=%d: sample ran after %d ops", c.at, seenAt)
		}
		if len(r.byKind["k"]) != len(r.lat) {
			t.Errorf("%d ops of kind k, %d ops", len(r.byKind["k"]), len(r.lat))
		}
	}
}

func equalSeq(a, b []pins) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameOps(a, b []httpOp) bool {
	x, _ := json.Marshal(opsView(a))
	y, _ := json.Marshal(opsView(b))
	return string(x) == string(y)
}

func opsView(ops []httpOp) []any {
	out := make([]any, len(ops))
	for i, op := range ops {
		out[i] = []any{op.session, op.params, op.evaluate, op.points}
	}
	return out
}

// TestAttribution: concurrent children never account for more than the
// time they cover, and every microsecond of an op lands in exactly one
// layer (or in the unattributed bucket).
func TestAttribution(t *testing.T) {
	tr := obs.New("op", "")
	render := tr.Root().Child("Render")
	time.Sleep(time.Millisecond)
	rt := obs.New("render", "")
	p1 := rt.Root().Child("point")
	p2 := rt.Root().Child("point")
	time.Sleep(2 * time.Millisecond)
	p1.End()
	p2.End()
	rt.End()
	render.Graft(rt.Tree())
	render.End()
	tr.End()
	n := tr.Tree()

	root := toSpan(n, nil, -n.StartUS)
	acc := map[string]float64{}
	attribute(root, 1, acc)
	var sum float64
	for _, v := range acc {
		sum += v
	}
	if math.Abs(sum-float64(root.dur())) > 1e-6*float64(root.dur())+1 {
		t.Errorf("attributed %v us of a %d us op", sum, root.dur())
	}
	if acc["mc"] > float64(root.dur()) {
		t.Errorf("overlapping points attributed %v us, more than the op's %d us", acc["mc"], root.dur())
	}
	m := analyzeTrees([]*obs.Node{n})
	if m["mc.point_ms"] <= 0 || m["trace.unattributed_frac"] >= 1 {
		t.Errorf("analyzeTrees = %v", m)
	}
}
