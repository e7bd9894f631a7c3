package main

import (
	"runtime"
	"sync"
	"time"

	"fuzzyprophet/internal/obs"
)

// timeSetup runs one set-up and records its duration. A forced collection
// before it gives every timed set-up the same heap state: set-up takes well
// under a millisecond on the library workloads, and a GC cycle falling
// inside one would otherwise decide its time.
func timeSetup(r *result, setup func() error) error {
	runtime.GC()
	t0 := time.Now()
	err := setup()
	r.setup = append(r.setup, time.Since(t0))
	return err
}

// opFunc runs one op for a client. sp is the op's root span in a traced run
// and nil otherwise (obs spans are nil-safe no-ops). It returns the
// parameter points the op evaluated, the op's kind ("" when a workload has
// one kind of op) and any error or failed check.
type opFunc func(client int, sp *obs.Span) (points int, kind string, err error)

// sampleAt is a reading taken once, right after the at-th successful timed
// op and outside any op's latency: figures that grow with the ops a run
// completes (a store that keeps every basis, a live heap) are read after a
// fixed amount of work instead of at the end of the phase, so a faster
// system does not read as a memory regression.
type sampleAt struct {
	at   int
	read func()
}

// timedPhase runs op closed-loop on the given number of client goroutines
// until the phase has lasted cfg.seconds, then lets in-flight ops finish.
// It records every op's latency (also by kind), the process counters over
// the phase and, when tracing, every op's span tree. Each sample runs once,
// in the client that completed its op; a phase too short to reach it runs
// it at the end.
func timedPhase(cfg config, r *result, clients int, op opFunc, samples ...sampleAt) {
	deadline := time.Duration(cfg.seconds * float64(time.Second))
	var mu sync.Mutex
	before := readProc()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < deadline {
				var tr *obs.Trace
				if cfg.trace {
					tr = obs.New("op", "")
				}
				t0 := time.Now()
				points, kind, err := op(c, tr.Root())
				lat := time.Since(t0)
				tr.End()
				mu.Lock()
				r.opDone(err)
				var due []sampleAt
				if err == nil {
					r.lat = append(r.lat, lat)
					r.addKind(kind, lat)
					r.points += int64(points)
					if tr != nil {
						r.trees = append(r.trees, tr.Tree())
					}
					for _, s := range samples {
						if s.at == len(r.lat) {
							due = append(due, s)
						}
					}
				}
				mu.Unlock()
				for _, s := range due {
					s.read()
				}
			}
		}(c)
	}
	wg.Wait()
	r.elapsed = time.Since(start)
	r.proc = readProc().sub(before)
	for _, s := range samples {
		if s.at > len(r.lat) {
			s.read()
		}
	}
}
