// Command perfbench is fuzzyprophet's end-to-end benchmark. One run drives
// one seeded workload through the system's public surfaces — the library
// API, the single-node HTTP server and a sharded coordinator with two
// in-process workers — checks every output, and prints its metrics. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones a user sees; with
// --trace 1 the same workload runs again with tracing switched on and the
// metrics are per-layer figures read off span trees, replays and counters.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload explore --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for the workloads and the metric map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// config is one benchmark run's inputs.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	size     sizes
	// traceDir receives the traced run's span trees (empty: not written).
	traceDir string
}

// sizes holds every knob that scales a workload. fullSizes is what the
// command runs; the smoke tests shrink it.
type sizes struct {
	exploreWorlds int
	sweepWorlds   int
	sweepStep     int
	serveWorlds   int
	fanoutWorlds  int
	// setupReps is how often set-up is timed (setup_s is the median).
	// coldReps more set-ups, untimed, are each followed by a timed first
	// op on cold caches (first_op_ms is the median); the HTTP workloads'
	// cheap first ops repeat httpColdReps times. Every sweep op starts
	// cold; sweepColdReps of them are timed apart as first ops.
	setupReps     int
	coldReps      int
	httpColdReps  int
	sweepColdReps int
	// sessions is the number of server sessions each client rotates over.
	sessions int
	// evalPoints is the size of one POST /evaluate batch.
	evalPoints int
	// replayReps is how often each replayed layer input is timed.
	replayReps int
}

var fullSizes = sizes{
	exploreWorlds: 1000,
	sweepWorlds:   300,
	sweepStep:     16,
	serveWorlds:   1000,
	fanoutWorlds:  500,
	setupReps:     101,
	coldReps:      5,
	httpColdReps:  15,
	sweepColdReps: 3,
	sessions:      6,
	evalPoints:    8,
	replayReps:    200,
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, config) (*result, error){
	"explore": runExplore,
	"sweep":   runSweep,
	"serve":   func(ctx context.Context, cfg config) (*result, error) { return runHTTP(ctx, cfg, false) },
	"fanout":  func(ctx context.Context, cfg config) (*result, error) { return runHTTP(ctx, cfg, true) },
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed: the op sequence is a pure function of (workload, seed)")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	traceDir := fs.String("trace-dir", ".bench_build/traces", "where a traced run writes its span trees")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload {%s}, --seconds > 0, --trace 0|1\n",
			strings.Join(workloadNames(), "|"))
		return 2
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		size:     fullSizes,
		traceDir: *traceDir,
	}
	res, err := runWorkload(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	res.print(stdout, cfg)
	if !res.correct() {
		for _, f := range res.failures {
			fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", cfg.workload, f)
		}
		return 1
	}
	return 0
}

// runWorkload runs cfg's workload and fills in the metric set the run
// reports: end-to-end metrics untraced, per-layer metrics traced.
func runWorkload(ctx context.Context, cfg config) (*result, error) {
	run := func(cfg config) (*result, error) {
		refBefore := calibrate()
		res, err := workloads[cfg.workload](ctx, cfg)
		if err == nil && len(res.lat) == 0 {
			err = fmt.Errorf("no op completed in the timed phase")
		}
		if err == nil {
			res.extra = append(res.extra,
				metric{"machine.ref_ms.before", refBefore, "ms"},
				metric{"machine.ref_ms.after", calibrate(), "ms"})
		}
		return res, err
	}
	if !cfg.trace {
		res, err := run(cfg)
		if err != nil {
			return nil, err
		}
		res.metrics = res.endToEnd()
		return res, nil
	}
	// The traced run first repeats the untraced workload, so the tracing
	// overhead is measured against the same seed in the same process.
	plain := cfg
	plain.trace = false
	base, err := run(plain)
	if err != nil {
		return nil, err
	}
	res, err := run(cfg)
	if err != nil {
		return nil, err
	}
	res.failures = append(base.failures, res.failures...)
	res.attempted += base.attempted
	res.failed += base.failed
	res.metrics = res.perLayer(base)
	if err := res.writeTraces(cfg); err != nil {
		return nil, err
	}
	return res, nil
}

// print writes the human-readable metric lines and then, as the last line,
// the JSON result object.
func (r *result) print(w io.Writer, cfg config) {
	fmt.Fprintf(w, "workload %s seed %d trace %v: %d ops attempted, %d failed\n",
		cfg.workload, cfg.seed, cfg.trace, r.attempted, r.failed)
	for _, m := range r.extra {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", m.name, m.value, m.unit)
	}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", m.name, m.value, m.unit)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, map[string]jsonMetric{}}
	for _, m := range r.metrics {
		out.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	line, _ := json.Marshal(out)
	fmt.Fprintln(w, string(line))
}
