package fuzzyprophet

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"
	"testing"

	"fuzzyprophet/internal/benchfix"
	"fuzzyprophet/internal/scenario"
	"fuzzyprophet/internal/sqlparser"
)

// frameGoldenWorlds is the world count of the frame and summary goldens.
const frameGoldenWorlds = 200

// frameGoldenPins moves every non-axis slider of each bundled example off
// its default, so the goldens cover points TestGoldenOutputs does not.
var frameGoldenPins = map[string]map[string]any{
	"capacityplanning": {"purchase1": 16, "purchase2": 32, "feature": 36},
	"featurerelease":   {"feature": 32},
	"pricing":          {"price": 9},
	"quickstart":       {"budget": 100},
	"serverfleet":      {"feature": 36},
}

// frameGoldenDigests pins rendered frames and batch summaries at
// frameGoldenPins, over every value of the example's first parameter (the
// graph axis where there is one). "<name>/frame/..." hashes the Float64bits
// of every Session.Render series' Y and CI95; "<name>/summary/..." hashes
// every EvaluateBatch ColumnSummary field. Full renders are bit-identical
// for shards 1 and 4 and share one key per reuse setting; sketch-only
// renders (with reuse on) merge per-range t-digests, so their keys carry
// the shard count.
// The values were computed on amd64; Go may fuse multiply-adds on other
// architectures.
var frameGoldenDigests = map[string]string{
	"capacityplanning/frame/reuse=off":         "10becb9f747db7a782bd12a28f08e21b4e43a6e7a4a63093078763529ff83bca",
	"capacityplanning/frame/reuse=on":          "10becb9f747db7a782bd12a28f08e21b4e43a6e7a4a63093078763529ff83bca",
	"capacityplanning/frame/sketch/shards=1":   "10becb9f747db7a782bd12a28f08e21b4e43a6e7a4a63093078763529ff83bca",
	"capacityplanning/frame/sketch/shards=4":   "68261d9b29625b2c000bb72f3bb2a94c0c3283523001e021f9863c87de10e7ac",
	"capacityplanning/summary/reuse=off":       "2c5ae2dfde0bd5d4c4f19d02ed9dad8155e92ca6eaa4986f694890ba5e48017c",
	"capacityplanning/summary/reuse=on":        "2c5ae2dfde0bd5d4c4f19d02ed9dad8155e92ca6eaa4986f694890ba5e48017c",
	"capacityplanning/summary/sketch/shards=1": "2c5ae2dfde0bd5d4c4f19d02ed9dad8155e92ca6eaa4986f694890ba5e48017c",
	"capacityplanning/summary/sketch/shards=4": "857c6c7bdd53616a7d6e885d53f19dc6c10ee17104417eed92f26f2611655ca2",
	"featurerelease/frame/reuse=off":           "072b591329cc90353e04dc5acbf61474bb26d31bad6e2ce924ebe2a25a05c109",
	"featurerelease/frame/reuse=on":            "072b591329cc90353e04dc5acbf61474bb26d31bad6e2ce924ebe2a25a05c109",
	"featurerelease/frame/sketch/shards=1":     "072b591329cc90353e04dc5acbf61474bb26d31bad6e2ce924ebe2a25a05c109",
	"featurerelease/frame/sketch/shards=4":     "09157bfd0608f880040b315d118a8f46536845849208df8eac25abd60c106527",
	"featurerelease/summary/reuse=off":         "7de53de02a62bba1756052a36bfabf53574c17f26b3775dbf7209ec2ea80365b",
	"featurerelease/summary/reuse=on":          "7de53de02a62bba1756052a36bfabf53574c17f26b3775dbf7209ec2ea80365b",
	"featurerelease/summary/sketch/shards=1":   "7de53de02a62bba1756052a36bfabf53574c17f26b3775dbf7209ec2ea80365b",
	"featurerelease/summary/sketch/shards=4":   "85949760df75416eb1531393fd2a7044420cb5ec37d11d3099501458e06aa024",
	"pricing/summary/reuse=off":                "8df85ed359f9f9ab0fa5a70f9b39ba96cef16d0b924670531e8b598eb45b370b",
	"pricing/summary/reuse=on":                 "8df85ed359f9f9ab0fa5a70f9b39ba96cef16d0b924670531e8b598eb45b370b",
	"pricing/summary/sketch/shards=1":          "8df85ed359f9f9ab0fa5a70f9b39ba96cef16d0b924670531e8b598eb45b370b",
	"pricing/summary/sketch/shards=4":          "9c755faca368c7084042550a48d1c86578872d38bc7cf16ff23f25117c045c26",
	"quickstart/summary/reuse=off":             "a057e077d8d230c6fc743134b381a9d913e8523a333b188b89f953c9310f6f14",
	"quickstart/summary/reuse=on":              "9db9a7938511018d5d09184862d93968655fc1256a5610f6807a56cf38f072f1",
	"quickstart/summary/sketch/shards=1":       "9db9a7938511018d5d09184862d93968655fc1256a5610f6807a56cf38f072f1",
	"quickstart/summary/sketch/shards=4":       "b1cbb0035282625e113b0ad5f7530d2700070967e2d9a40fa42eebd6049505c2",
	"serverfleet/frame/reuse=off":              "a1f086157d57ac3b6e431e120508c174dcd6bdd5b0743d4081d3ec2572ba11d1",
	"serverfleet/frame/reuse=on":               "a1f086157d57ac3b6e431e120508c174dcd6bdd5b0743d4081d3ec2572ba11d1",
	"serverfleet/frame/sketch/shards=1":        "a1f086157d57ac3b6e431e120508c174dcd6bdd5b0743d4081d3ec2572ba11d1",
	"serverfleet/frame/sketch/shards=4":        "521b7d72a34b1b378104a38df6b3a3f2abefaec68b4b16f1a2a6c05b200a9c1b",
	"serverfleet/summary/reuse=off":            "488cfcf0a7137ff06f4cb16aa95c95ba163eb7de5561454519bc216c452c20c1",
	"serverfleet/summary/reuse=on":             "488cfcf0a7137ff06f4cb16aa95c95ba163eb7de5561454519bc216c452c20c1",
	"serverfleet/summary/sketch/shards=1":      "488cfcf0a7137ff06f4cb16aa95c95ba163eb7de5561454519bc216c452c20c1",
	"serverfleet/summary/sketch/shards=4":      "913e68970a2e84dfd6f10715ce0758e2827b41b33bfc4175aab5449fe0ea1c30",
}

func compileGoldenExample(t *testing.T, name string) *Scenario {
	t.Helper()
	reg, err := benchfix.Registry()
	if err != nil {
		t.Fatal(err)
	}
	scn, err := scenario.Compile(sqlparser.ExampleScenarios()[name], reg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if name == "serverfleet" {
		regions, err := benchfix.RegionsTable()
		if err != nil {
			t.Fatal(err)
		}
		if err := scn.AddTable(regions); err != nil {
			t.Fatal(err)
		}
	}
	return &Scenario{scn: scn}
}

func putBits(h hash.Hash, vs ...float64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
}

func frameDigest(g *Graph) string {
	h := sha256.New()
	for _, s := range g.Series {
		h.Write([]byte(s.Name))
		putBits(h, s.Y...)
		putBits(h, s.CI95...)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func summaryDigest(res *BatchResult) string {
	h := sha256.New()
	for _, p := range res.Points {
		cols := make([]string, 0, len(p.Summaries))
		for col := range p.Summaries {
			cols = append(cols, col)
		}
		sort.Strings(cols)
		for _, col := range cols {
			s := p.Summaries[col]
			h.Write([]byte(col))
			putBits(h, float64(s.N), s.Mean, s.StdDev, s.Min, s.Max, s.Median, s.P95, s.CI95)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFrameAndSummaryGoldens renders every bundled example's frame (when it
// declares a GRAPH) and batch summaries at a non-default pin set with 1 and
// 4 shards — reuse off, reuse on and sketch-only — and compares each digest
// with the pinned value. It pins the aggregation layer's outputs, not just
// the executor's sample vectors.
func TestFrameAndSummaryGoldens(t *testing.T) {
	ctx := context.Background()
	for _, name := range sqlparser.ExampleScenarioNames() {
		sc := compileGoldenExample(t, name)
		pins := frameGoldenPins[name]
		axis := sc.Params()[0]
		points := make([]map[string]any, len(axis.Values))
		for i, v := range axis.Values {
			pt := map[string]any{axis.Name: v}
			for k, pv := range pins {
				pt[k] = pv
			}
			points[i] = pt
		}
		expect := func(key, got string) {
			t.Helper()
			if want := frameGoldenDigests[key]; got != want {
				t.Errorf("%s: digest %s, want %s", key, got, want)
			}
		}
		for _, shards := range []int{1, 4} {
			modes := []struct {
				key  string
				opts []EvalOption
			}{
				{"reuse=off", []EvalOption{WithoutReuse()}},
				{"reuse=on", nil},
				{fmt.Sprintf("sketch/shards=%d", shards), []EvalOption{WithSketchOnly()}},
			}
			for _, m := range modes {
				opts := append([]EvalOption{WithWorlds(frameGoldenWorlds), WithShards(shards)}, m.opts...)
				if sc.scn.Graph != nil {
					sess, err := sc.OpenSession(opts...)
					if err != nil {
						t.Fatal(err)
					}
					for k, v := range pins {
						if err := sess.SetParam(k, v); err != nil {
							t.Fatal(err)
						}
					}
					g, err := sess.Render(ctx)
					if err != nil {
						t.Fatalf("%s shards=%d %s: %v", name, shards, m.key, err)
					}
					if len(g.X) != len(axis.Values) {
						t.Fatalf("%s: frame has %d points, want %d", name, len(g.X), len(axis.Values))
					}
					expect(name+"/frame/"+m.key, frameDigest(g))
				}
				res, err := sc.EvaluateBatch(ctx, points, opts...)
				if err != nil {
					t.Fatalf("%s shards=%d %s: %v", name, shards, m.key, err)
				}
				expect(name+"/summary/"+m.key, summaryDigest(res))
			}
		}
	}
}
