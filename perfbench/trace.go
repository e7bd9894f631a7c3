package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"fuzzyprophet/internal/obs"
)

// span is an op tree node on one clock: microsecond offsets from the op's
// start. Subtrees grafted from another trace (the library's render trace,
// a server's trace, a worker's) arrive with offsets relative to their own
// root; toSpan re-bases them onto their parent's start.
type span struct {
	name       string
	parent     string
	start, end int64
	attrs      map[string]any
	children   []*span
}

func toSpan(n *obs.Node, parent *span, delta int64) *span {
	s := &span{name: n.Name, attrs: n.Attrs, start: n.StartUS + delta}
	if parent != nil {
		s.parent = parent.name
		if s.start < parent.start || s.start+n.DurUS > parent.end {
			delta = parent.start - n.StartUS
			s.start = parent.start
		}
	}
	s.end = s.start + n.DurUS
	for _, c := range n.Children {
		s.children = append(s.children, toSpan(c, s, delta))
	}
	return s
}

func (s *span) dur() int64 { return s.end - s.start }

func (s *span) walk(fn func(*span)) {
	fn(s)
	for _, c := range s.children {
		c.walk(fn)
	}
}

// covered returns the length of the union of the children's intervals,
// clipped to s, and the sum of their clipped lengths.
func (s *span) covered() (union, sum int64) {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(s.children))
	for _, c := range s.children {
		lo, hi := max(c.start, s.start), min(c.end, s.end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
			sum += hi - lo
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var curLo, curHi int64 = 0, -1
	for _, v := range ivs {
		if v.lo > curHi {
			if curHi > curLo {
				union += curHi - curLo
			}
			curLo, curHi = v.lo, v.hi
		} else if v.hi > curHi {
			curHi = v.hi
		}
	}
	if curHi > curLo {
		union += curHi - curLo
	}
	return union, sum
}

// self is the span's time not covered by any child.
func (s *span) self() int64 {
	u, _ := s.covered()
	return s.dur() - u
}

// layerOf names the layer a span's self time belongs to. The benchmark's
// own spans ("op", "Render", "Optimize") and unknown names return "": that
// time is unattributed.
func layerOf(parent, name string) string {
	switch name {
	case "SetParam":
		return "online"
	case "render":
		if parent == "Optimize" {
			return "optimize"
		}
		return "online"
	case "evaluate":
		return "online"
	case "point", "simulate", "worlds-materialize", "sketch-merge":
		return "mc"
	case "plan-execute":
		return "sqlengine"
	case "spill-demote", "spill-promote":
		return "storage"
	case "shard-fanout", "shard", "worker-shard", "PUT params", "GET render", "POST evaluate":
		return "server"
	}
	if strings.HasPrefix(name, "op:") {
		return "sqlengine"
	}
	return ""
}

// attribute distributes s's duration (scaled by weight) over layers: its
// self time to its own layer, the rest to its children. Children that ran
// concurrently are scaled down so a subtree never accounts for more than
// the time it covered.
func attribute(s *span, weight float64, acc map[string]float64) {
	union, sum := s.covered()
	acc[layerOf(s.parent, s.name)] += weight * float64(s.dur()-union)
	if sum == 0 {
		return
	}
	scale := weight * float64(union) / float64(sum)
	for _, c := range s.children {
		attribute(c, scale, acc)
	}
}

// analyzeTrees derives the span-based per-layer metrics from the traced
// ops' trees (see perLayerDefs for each metric's base).
func analyzeTrees(trees []*obs.Node) map[string]float64 {
	out := map[string]float64{}
	if len(trees) == 0 {
		return out
	}
	var (
		acc                          = map[string]float64{}
		total                        float64
		renders, renderSelf          float64
		points, pointUS              float64
		simulate, materialize, merge float64
		execUS, execs, rowsOut       float64
		optSelf, reqSelf             float64
		fanout, workerUS, transport  float64
	)
	for _, n := range trees {
		root := toSpan(n, nil, -n.StartUS)
		total += float64(root.dur())
		attribute(root, 1, acc)
		root.walk(func(s *span) {
			d := float64(s.dur())
			switch s.name {
			case "render":
				if s.parent == "Optimize" {
					optSelf += float64(s.self())
				} else {
					renders++
					renderSelf += float64(s.self())
				}
			case "point":
				points++
				pointUS += d
			case "simulate":
				simulate += d
			case "worlds-materialize":
				materialize += d
			case "sketch-merge":
				merge += d
			case "plan-execute":
				execs++
				execUS += d
				if v, ok := s.attrs["rows_out"].(float64); ok {
					rowsOut += v
				} else if v, ok := s.attrs["rows_out"].(int64); ok {
					rowsOut += float64(v)
				}
			case "GET render", "POST evaluate", "PUT params":
				reqSelf += float64(s.self())
			case "shard-fanout":
				fanout += d
			case "worker-shard":
				workerUS += d
			case "shard":
				transport += float64(s.self())
			}
		})
	}
	ops := float64(len(trees))
	msPerOp := func(us float64) float64 { return us / 1e3 / ops }
	out["mc.simulate_ms"] = msPerOp(simulate)
	out["mc.materialize_ms"] = msPerOp(materialize)
	out["mc.sketch_merge_ms"] = msPerOp(merge)
	out["sqlengine.exec_ms"] = msPerOp(execUS)
	out["optimize.self_ms"] = msPerOp(optSelf)
	out["server.request_self_ms"] = msPerOp(reqSelf)
	out["server.shard_ms"] = msPerOp(fanout)
	out["server.worker_shard_ms"] = msPerOp(workerUS)
	out["server.shard_transport_ms"] = msPerOp(transport)
	if renders > 0 {
		out["online.render_self_ms"] = renderSelf / 1e3 / renders
	}
	if points > 0 {
		out["mc.point_ms"] = pointUS / 1e3 / points
	}
	if execs > 0 {
		out["sqlengine.rows_out_per_point"] = rowsOut / execs
	}
	out["trace.unattributed_frac"] = acc[""] / total
	for layer, us := range acc {
		if layer != "" {
			out["layer."+layer+"_frac"] = us / total
		}
	}
	return out
}

// writeTraces writes the traced ops' span trees, one JSON tree per line,
// to <traceDir>/<workload>-seed<seed>.jsonl.
func (r *result) writeTraces(cfg config) error {
	if cfg.traceDir == "" {
		return nil
	}
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range r.trees {
		if err := enc.Encode(t); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
