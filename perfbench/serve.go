package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"time"

	fp "fuzzyprophet"
	"fuzzyprophet/internal/obs"
	"fuzzyprophet/internal/server"
	"fuzzyprophet/internal/server/protocoltest"
)

// opKinds names each scenario's render ops for the per-kind latencies
// (op.<kind>_p50_ms); evaluate batches are "evaluate".
var opKinds = map[string]string{"featurerelease": "release", "serverfleet": "fleet"}

// httpSampleOps is the timed op after which a traced serve or fanout run
// reads the basis store's size.
const httpSampleOps = 50

// firstFeature is the featurerelease slider value of the first op.
const firstFeature = 32

// httpClients is the number of closed-loop clients (one per core of the
// 2-vCPU reference machine); each owns one connection.
const httpClients = 2

// sketchTolerance bounds a sketch-only frame's relative deviation from the
// exact frame. The frames hold only moment series (EXPECT, EXPECT_STDDEV),
// which sketches carry exactly; the slack covers the different summation
// order of merged per-shard moments.
const sketchTolerance = 1e-9

// deployment is one set-up of the serve or fanout workload: the
// coordinator, its workers (fanout), and every client's sessions.
type deployment struct {
	systems  []*fp.System
	servers  []*server.Server
	https    []*httptest.Server
	proxies  []*protocoltest.Proxy
	url      string
	clients  []*http.Client
	sessions [][]sessionRef
}

type sessionRef struct {
	id     string
	kind   string
	sketch bool
}

func (d *deployment) close() {
	if d == nil {
		return
	}
	for _, h := range d.https {
		h.Close()
	}
	for _, p := range d.proxies {
		p.Close()
	}
	for _, s := range d.servers {
		s.Close()
	}
	for _, c := range d.clients {
		c.CloseIdleConnections()
	}
}

func (d *deployment) vgInvocations() int64 {
	var n int64
	for _, s := range d.systems {
		n += s.VGInvocations()
	}
	return n
}

// deploy starts the servers, registers both scenarios and opens every
// client's sessions. With fanout, the coordinator fans shards out to two
// in-process workers; with proxy, each worker sits behind a recording
// protocoltest proxy.
func deploy(cfg config, worlds int, fanout, proxy bool) (*deployment, error) {
	d := &deployment{}
	var workers []string
	if fanout {
		for i := 0; i < 2; i++ {
			sys, err := fp.New(fp.WithDemoModels())
			if err != nil {
				return d, err
			}
			w, err := server.New(server.Config{System: sys, WorkerMode: true, SlowRenderThreshold: -1})
			if err != nil {
				return d, err
			}
			hs := httptest.NewServer(w)
			d.systems, d.servers, d.https = append(d.systems, sys), append(d.servers, w), append(d.https, hs)
			url := hs.URL
			if proxy {
				p := protocoltest.New(url)
				d.proxies = append(d.proxies, p)
				url = p.URL()
			}
			workers = append(workers, url)
		}
	}
	sys, err := fp.New(fp.WithDemoModels())
	if err != nil {
		return d, err
	}
	coord, err := server.New(server.Config{
		System:              sys,
		DefaultWorlds:       worlds,
		Workers:             workers,
		SlowRenderThreshold: -1,
	})
	if err != nil {
		return d, err
	}
	hs := httptest.NewServer(coord)
	d.systems, d.servers, d.https = append(d.systems, sys), append(d.servers, coord), append(d.https, hs)
	d.url = hs.URL
	for c := 0; c < httpClients; c++ {
		d.clients = append(d.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
		}})
	}
	cl := d.clients[0]
	for _, kind := range []string{"featurerelease", "serverfleet"} {
		src, err := exampleSQL(kind)
		if err != nil {
			return d, err
		}
		reg := map[string]any{"id": kind, "sql": src}
		if kind == "serverfleet" {
			name, cols, rows, err := regionsTable()
			if err != nil {
				return d, err
			}
			reg["tables"] = []any{map[string]any{"name": name, "columns": cols, "rows": rows}}
		}
		if err := doJSON(cl, http.MethodPost, d.url+"/scenarios", reg, nil); err != nil {
			return d, err
		}
	}
	for c := 0; c < httpClients; c++ {
		var refs []sessionRef
		for i := 0; i < cfg.size.sessions; i++ {
			ref := sessionRef{kind: sessionKind(i), sketch: fanout && i >= cfg.size.sessions/2}
			var resp struct {
				ID string `json:"id"`
			}
			err := doJSON(d.clients[c], http.MethodPost, d.url+"/scenarios/"+ref.kind+"/sessions",
				map[string]any{"worlds": worlds, "sketch_only": ref.sketch}, &resp)
			if err != nil {
				return d, err
			}
			ref.id = resp.ID
			refs = append(refs, ref)
		}
		d.sessions = append(d.sessions, refs)
	}
	return d, nil
}

// renderReply is the part of GET /sessions/{id}/render the benchmark reads.
type renderReply struct {
	Graph     *fp.Graph `json:"graph"`
	Coalesced bool      `json:"coalesced"`
	Trace     *obs.Node `json:"trace"`
}

// batchReply is the part of POST /scenarios/{id}/evaluate it reads.
type batchReply struct {
	Points []fp.BatchPoint `json:"points"`
	Trace  *obs.Node       `json:"trace"`
}

// runHTTP runs the serve workload (single node) or, with fanout, the same
// clients against a coordinator sharding every point over two workers.
func runHTTP(ctx context.Context, cfg config, fanout bool) (*result, error) {
	r := &result{}
	worlds := cfg.size.serveWorlds
	if fanout {
		worlds = cfg.size.fanoutWorlds
	}
	frames := newFrameStore()
	var d *deployment
	setup := func() error {
		if d != nil {
			d.close()
		}
		var err error
		d, err = deploy(cfg, worlds, fanout, fanout && cfg.trace)
		return err
	}
	defer func() { d.close() }()
	for i := 0; i < cfg.size.setupReps; i++ {
		if err := timeSetup(r, setup); err != nil {
			return nil, err
		}
	}
	// First ops on cold caches, each on a fresh deployment: client 0's
	// first session renders a fixed frame, so that its cost is the same
	// for every seed. The last deployment goes on to the timed phase.
	for i := 0; i < cfg.size.httpColdReps; i++ {
		if err := setup(); err != nil {
			return nil, err
		}
		op := httpOp{session: 0, params: map[string]any{"feature": firstFeature}}
		t1 := time.Now()
		_, err := renderOp(d, 0, op, nil, frames, nil)
		r.firstOp = append(r.firstOp, time.Since(t1))
		r.opDone(err)
	}
	r.compile = compileTimes(cfg.size.setupReps)

	// Warm-up, not timed: render every distinct frame once (per scenario,
	// slider value and response mode, through client 0's sessions), and on
	// fanout compute each frame's reference with the library, reuse off.
	refs := map[string]*fp.Graph{}
	warmed := map[string]bool{}
	for i, s := range d.sessions[0] {
		for _, f := range featureValuesFor(s.kind) {
			key := frameKey(s.kind, f)
			if warmed[fmt.Sprint(key, s.sketch)] {
				continue
			}
			warmed[fmt.Sprint(key, s.sketch)] = true
			if fanout && refs[key] == nil {
				g, err := referenceFrame(ctx, s.kind, f, worlds)
				if err != nil {
					return nil, err
				}
				refs[key] = g
			}
			_, err := renderOp(d, 0, httpOp{session: i, params: map[string]any{"feature": f}}, nil, frames, refs)
			r.opDone(err)
		}
	}

	scripts := make([]*httpScript, httpClients)
	for c := range scripts {
		scripts[c] = newHTTPScript(cfg.seed, c, cfg.size.sessions, cfg.size.evalPoints)
	}
	for _, p := range d.proxies {
		p.Reset()
	}
	metricsBefore, err := scrape(d.clients[0], d.url)
	if err != nil {
		return nil, err
	}
	vgBefore := d.vgInvocations()
	// The replays use the last serverfleet frame: its aggregation over
	// 4 regions × worlds rows is what dominates a serve op.
	var (
		lastFleet *fp.Graph
		lastMu    sync.Mutex
	)
	// In a traced run, the basis store's size is read after a fixed number
	// of ops: evaluate batches may add bases until every point is seen.
	var (
		storeAt    map[string]float64
		storeAtErr error
	)
	var samples []sampleAt
	if cfg.trace {
		samples = append(samples, sampleAt{httpSampleOps, func() { storeAt, storeAtErr = scrape(d.clients[0], d.url) }})
	}
	timedPhase(cfg, r, httpClients, func(c int, sp *obs.Span) (int, string, error) {
		op := scripts[c].next()
		if op.evaluate {
			points, err := evaluateOp(d, c, op, sp, worlds)
			return points, "evaluate", err
		}
		kind := d.sessions[c][op.session].kind
		g, err := renderOp(d, c, op, sp, frames, refs)
		if g != nil && kind == "serverfleet" {
			lastMu.Lock()
			lastFleet = g
			lastMu.Unlock()
		}
		return framePoints, opKinds[kind], err
	}, samples...)
	r.liveHeap = liveHeap()
	if !cfg.trace {
		return r, nil
	}
	if storeAtErr != nil {
		return nil, storeAtErr
	}

	after, err := scrape(d.clients[0], d.url)
	if err != nil {
		return nil, err
	}
	ops := float64(len(r.lat))
	l := map[string]float64{"vg.calls_per_op": float64(d.vgInvocations()-vgBefore) / ops}
	r.layers = l
	delta := func(name string) float64 { return after[name] - metricsBefore[name] }
	reuseLayers(l, outcomes(metricsBefore), outcomes(after), ops)
	storeLayers(l, storeStats(metricsBefore), storeStats(after), ops)
	l["storage.bytes"] = storeAt["fpserver_reuse_store_bytes"]
	coalesced, renders := delta("fpserver_renders_coalesced_total"), delta("fpserver_renders_total")
	if coalesced+renders > 0 {
		l["server.coalesced_ratio"] = coalesced / (coalesced + renders)
	}
	if shardReqs := delta("fpserver_shard_slim_requests_total") + delta("fpserver_shard_full_requests_total"); shardReqs > 0 {
		l["server.hedge_ratio"] = delta("fpserver_shard_hedges_total") / shardReqs
		l["server.retry_ratio"] = delta("fpserver_shard_retries_total") / shardReqs
		l["server.resend_ratio"] = delta("fpserver_shard_cache_miss_resends_total") / shardReqs
	}
	if hedges := delta("fpserver_shard_hedges_total"); hedges > 0 {
		l["server.hedge_win_ratio"] = delta("fpserver_shard_hedge_wins_total") / hedges
	}
	proxyLayers(l, d.proxies, ops)
	scn, err := compileHTTPScenario("serverfleet")
	if err != nil {
		return nil, err
	}
	point := map[string]any{"current": 26, "feature": 36}
	if err := replayLayers(ctx, r, cfg, scn, point, 0, worlds, lastFleet, demandVGs); err != nil {
		return nil, err
	}
	return r, nil
}

func frameKey(kind string, feature any) string { return fmt.Sprintf("%s/feature=%v", kind, feature) }

// renderOp is PUT params followed by GET render, with the output checks:
// every reply 2xx and well-formed; a full-vector frame bit-identical to
// the frame first served under its key (and, given references, to the
// library's reuse-off render); a sketch-only frame within sketchTolerance
// of the reference.
func renderOp(d *deployment, c int, op httpOp, sp *obs.Span, frames *frameStore, refs map[string]*fp.Graph) (*fp.Graph, error) {
	s := d.sessions[c][op.session]
	cl := d.clients[c]
	psp := sp.Child("PUT params")
	err := doJSON(cl, http.MethodPut, d.url+"/sessions/"+s.id+"/params", op.params, nil)
	psp.End()
	if err != nil {
		return nil, err
	}
	url := d.url + "/sessions/" + s.id + "/render"
	if sp != nil {
		url += "?trace=1"
	}
	var reply renderReply
	rsp := sp.Child("GET render")
	err = doJSON(cl, http.MethodGet, url, nil, &reply)
	if reply.Trace != nil {
		rsp.Graft(reply.Trace)
	}
	rsp.End()
	if err != nil {
		return nil, err
	}
	if err := checkFrame(reply.Graph); err != nil {
		return nil, err
	}
	key := frameKey(s.kind, op.params["feature"])
	ref := refs[key]
	if s.sketch {
		if ref != nil {
			return reply.Graph, framesClose(reply.Graph, ref, sketchTolerance)
		}
		return reply.Graph, nil
	}
	if ref != nil && frameHash(ref) != frameHash(reply.Graph) {
		return nil, checkf("frame %s differs from the library's reuse-off render", key)
	}
	return reply.Graph, frames.check(key, reply.Graph)
}

// evaluateOp is one POST /evaluate batch on featurerelease; the reply
// must carry one summary set per point over the requested worlds.
func evaluateOp(d *deployment, c int, op httpOp, sp *obs.Span, worlds int) (int, error) {
	url := d.url + "/scenarios/featurerelease/evaluate"
	if sp != nil {
		url += "?trace=1"
	}
	var reply batchReply
	esp := sp.Child("POST evaluate")
	err := doJSON(d.clients[c], http.MethodPost, url, map[string]any{"points": op.points, "worlds": worlds}, &reply)
	if reply.Trace != nil {
		esp.Graft(reply.Trace)
	}
	esp.End()
	if err != nil {
		return 0, err
	}
	if len(reply.Points) != len(op.points) {
		return 0, checkf("evaluate returned %d points for %d", len(reply.Points), len(op.points))
	}
	for i, p := range reply.Points {
		sum, ok := p.Summaries["demand"]
		if !ok || sum.N != int64(worlds) || math.IsNaN(sum.Mean) || math.IsInf(sum.Mean, 0) {
			return 0, checkf("evaluate point %d: bad demand summary %+v", i, sum)
		}
	}
	return len(op.points), nil
}

// framesClose checks that every series value of got is within relative
// tolerance tol of want.
func framesClose(got, want *fp.Graph, tol float64) error {
	if len(got.Series) != len(want.Series) {
		return checkf("sketch frame has %d series, want %d", len(got.Series), len(want.Series))
	}
	for i, s := range got.Series {
		for j, y := range s.Y {
			w := want.Series[i].Y[j]
			if math.Abs(y-w) > tol*math.Max(math.Abs(w), 1) {
				return checkf("sketch frame series %s point %d: %v, want %v (tolerance %g)", s.Name, j, y, w, tol)
			}
		}
	}
	return nil
}

// referenceFrame renders kind at feature with the library, reuse off,
// default seed base — what every sharded render must reproduce.
func referenceFrame(ctx context.Context, kind string, feature, worlds int) (*fp.Graph, error) {
	scn, err := compileHTTPScenario(kind)
	if err != nil {
		return nil, err
	}
	sess, err := scn.OpenSession(fp.WithWorlds(worlds), fp.WithoutReuse())
	if err != nil {
		return nil, err
	}
	if err := sess.SetParam("feature", feature); err != nil {
		return nil, err
	}
	return sess.Render(ctx)
}

// compileHTTPScenario compiles a serve/fanout scenario with the library,
// for reference frames and layer replays.
func compileHTTPScenario(kind string) (*fp.Scenario, error) {
	sys, err := fp.New(fp.WithDemoModels())
	if err != nil {
		return nil, err
	}
	src, err := exampleSQL(kind)
	if err != nil {
		return nil, err
	}
	scn, err := sys.Compile(src)
	if err != nil || kind != "serverfleet" {
		return scn, err
	}
	name, cols, rows, err := regionsTable()
	if err != nil {
		return nil, err
	}
	return scn, scn.AddTable(name, cols, rows)
}

// compileTimes times System.Compile of both scenarios (the server compiles
// on registration, where the benchmark cannot see it).
func compileTimes(reps int) []time.Duration {
	sys, err := fp.New(fp.WithDemoModels())
	if err != nil {
		return nil
	}
	var srcs []string
	for _, kind := range []string{"featurerelease", "serverfleet"} {
		src, err := exampleSQL(kind)
		if err != nil {
			return nil
		}
		srcs = append(srcs, src)
	}
	var out []time.Duration
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		for _, src := range srcs {
			if _, err := sys.Compile(src); err != nil {
				return nil
			}
		}
		out = append(out, time.Since(t0))
	}
	return out
}

// proxyLayers fills the shard exchange figures from the recording proxies
// (traced fanout only).
func proxyLayers(l map[string]float64, proxies []*protocoltest.Proxy, ops float64) {
	var n, nFull, nSketch, reqFull, reqSketch, respFull, respSketch float64
	for _, p := range proxies {
		for _, e := range p.ShardExchanges() {
			n++
			var body struct {
				SketchOnly bool `json:"sketch_only"`
			}
			json.Unmarshal(e.RequestBody, &body)
			if body.SketchOnly || strings.Contains(e.Query, "sketch_only=1") {
				nSketch++
				reqSketch += float64(e.RequestBytes)
				respSketch += float64(e.ResponseBytes)
			} else {
				nFull++
				reqFull += float64(e.RequestBytes)
				respFull += float64(e.ResponseBytes)
			}
		}
	}
	if len(proxies) == 0 {
		return
	}
	l["server.shard_exchanges_per_op"] = n / ops
	if nFull > 0 {
		l["server.shard_req_bytes_full"] = reqFull / nFull
		l["server.shard_resp_bytes_full"] = respFull / nFull
	}
	if nSketch > 0 {
		l["server.shard_req_bytes_sketch"] = reqSketch / nSketch
		l["server.shard_resp_bytes_sketch"] = respSketch / nSketch
	}
}

// ---- HTTP plumbing ----

// doJSON sends one request and decodes a 2xx JSON reply into out; any
// other status is an error.
func doJSON(cl *http.Client, method, url string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := cl.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return checkf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return checkf("%s %s: malformed reply: %v", method, url, err)
	}
	return nil
}

// scrape reads /metrics into a map from series (name plus labels) to
// value, also summing each metric name over its label sets.
func scrape(cl *http.Client, base string) (map[string]float64, error) {
	resp, err := cl.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		series := line[:i]
		out[series] = v
		if j := strings.IndexByte(series, '{'); j >= 0 {
			out[series[:j]] += v
		}
	}
	return out, sc.Err()
}

// storeStats extracts the basis-store counters from a scrape.
func storeStats(m map[string]float64) fp.StoreStats {
	return fp.StoreStats{
		UsedBytes: int64(m["fpserver_reuse_store_bytes"]),
		Hits:      int64(m["fpserver_reuse_store_hits"]),
		Misses:    int64(m["fpserver_reuse_store_misses"]),
		Evicted:   int64(m["fpserver_reuse_store_evictions"]),
	}
}

// outcomes extracts the per-kind reuse outcome counts from a scrape.
func outcomes(m map[string]float64) map[string]int {
	out := map[string]int{}
	for _, k := range []string{"computed", "identity", "affine", "cached"} {
		out[k] = int(m[fmt.Sprintf("fpserver_reuse_outcomes{kind=%q}", k)])
	}
	return out
}
