package mc

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"testing"

	"fuzzyprophet/internal/core"
	"fuzzyprophet/internal/guide"
	"fuzzyprophet/internal/sqlparser"
	"fuzzyprophet/internal/storage"
)

// goldenWorlds is the world count of the golden renders (default seed).
const goldenWorlds = 200

// goldenDigests pins every bundled example's outputs to fixed values.
// "<name>/columns" is the SHA-256 of the Float64bits of every output column
// at the default point, columns sorted by name — the same for every shard
// count and reuse setting; "<name>/columns/last" is the same digest with the
// first parameter at its last value. "<name>/sketch/shards=<k>" hashes the Count/Expect/StdDev bits of
// the sketch-only result's per-column sketches. The values were computed
// on amd64; Go may fuse multiply-adds on other architectures.
var goldenDigests = map[string]string{
	"capacityplanning/columns":         "a38a0819979575150a00a7abe14d0d7abc9c762c842e70a2999d8afdf4fafbea",
	"capacityplanning/columns/last":    "3db904041c594eea3943e1bbf822e50b5c4f1efef683289260ba5e5b5a2abf48",
	"capacityplanning/sketch/shards=1": "043ca968c638ebab9176251bb151ad70cde3ea1da2bcec3cd7156268dde539ac",
	"capacityplanning/sketch/shards=4": "40c71ade95618d493a281a85b741e1d57f65cc46e4ee935fa4ccf8dbeacfc7c0",
	"featurerelease/columns":           "b43932d766184f099de5e074c968a1636f03d2129eb9b1144b8a28069dcfe776",
	"featurerelease/columns/last":      "aec251829f6b9e662e4e0993386ba63a3828e84732e44457c3709f8a0654b2d6",
	"featurerelease/sketch/shards=1":   "3c074c35b6ffed83b27a4a7697bf86e529c3038db6fed0c77d2e32c0eada1a99",
	"featurerelease/sketch/shards=4":   "9c4cdf611e1f2fd17adb51ac18942d5367bd4297b34a2079d9609a16035b5bba",
	"pricing/columns":                  "c5ae9d2ca71fbf79de5e329d433d157e9ab2c1e75eaf44a11220b91755c9ee15",
	"pricing/columns/last":             "481d77086c0459230d7a159666bf40060fcd3532a9cf2ce0447be2e9ffe3823d",
	"pricing/sketch/shards=1":          "ceaece7c5f98d2e8e0dbd627af71245da56a384e9798a0896b501b3bc76e29a8",
	"pricing/sketch/shards=4":          "5dc148fd98402c3a3ff4cf4c91eafee7b34a8da45962ba1d521b9b04bc71ba80",
	"quickstart/columns":               "e8c707efa050b9ef8420f97d4bd5b6f70f362baaafcb8c74b46bca18ad4fd6ad",
	"quickstart/columns/last":          "e7bb0c93cf438edd2ef3c4b420ae56ee2ae591e6b9850f56076d7168618cfded",
	"quickstart/sketch/shards=1":       "5037e06af6e815c0ae9435fd99937671b43ac7482f0cb85be37b852b430da6c3",
	"quickstart/sketch/shards=4":       "b4ed0c2b8c7b8e5c1135a79e47aba6de5ccf210418349d4bebccde2debaf539f",
	"serverfleet/columns":              "69fbd3b3c4a759243d9a140836a2beb83f67f687a3ad68b22e7f04a5a83cee06",
	"serverfleet/columns/last":         "5309170dd0c4757bf28a3be04296072b2892a0c0ff1f062ab6e5322434000d31",
	"serverfleet/sketch/shards=1":      "5fa2f2c956050dbc2db0245187a13369f0f44cfd057af794f88ee72cdda47a8c",
	"serverfleet/sketch/shards=4":      "89dd7299e9f83e968cbb56b3dfbeee3c94d62c7c7123311fdebb7e7a4b772cfd",
}

// goldenDigest hashes a point result: its output columns when it has any,
// otherwise its sketches' Count/Expect/StdDev.
func goldenDigest(res *PointResult) string {
	h := sha256.New()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	if len(res.Columns) > 0 {
		names := make([]string, 0, len(res.Columns))
		for col := range res.Columns {
			names = append(names, col)
		}
		sort.Strings(names)
		for _, col := range names {
			h.Write([]byte(col))
			for _, v := range res.Columns[col] {
				put(math.Float64bits(v))
			}
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	names := make([]string, 0, len(res.Sketches))
	for col := range res.Sketches {
		names = append(names, col)
	}
	sort.Strings(names)
	for _, col := range names {
		cs := res.Sketches[col]
		h.Write([]byte(col))
		put(uint64(cs.Count()))
		put(math.Float64bits(cs.Expect()))
		put(math.Float64bits(cs.StdDev()))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenOutputs renders each bundled example at its default point and
// at its first parameter's last value with 1 and 4 shards — reuse off and
// reuse on (first and second render of one evaluator) — plus a sketch-only
// render of the default point, and compares every result's digest with the
// pinned value. Unlike the differential suites, which compare evaluation
// modes with each other, this pins the outputs themselves.
func TestGoldenOutputs(t *testing.T) {
	ctx := context.Background()
	for _, name := range sqlparser.ExampleScenarioNames() {
		scn := compileExample(t, name)
		// The default point sits at the first value of every parameter; the
		// "last" point moves the first parameter (a RANGE in every example)
		// to its last value, where week-indexed models run their full loop.
		last := scn.DefaultPoint()
		first := scn.Space.Params[0]
		last[first.Name] = first.Values[len(first.Values)-1]
		points := []struct {
			suffix string
			pt     guide.Point
		}{{"", scn.DefaultPoint()}, {"/last", last}}
		expect := func(label, key string, res *PointResult) {
			t.Helper()
			got := goldenDigest(res)
			if want := goldenDigests[key]; got != want {
				t.Errorf("%s (%s): digest %s, want %s", key, label, got, want)
			}
		}
		for _, shards := range []int{1, 4} {
			mode := fmt.Sprintf("shards=%d", shards)
			for _, p := range points {
				cols := name + "/columns" + p.suffix
				res, err := NewEvaluator(scn, Options{Worlds: goldenWorlds, Shards: shards}).EvaluatePoint(ctx, p.pt)
				if err != nil {
					t.Fatalf("%s: %v", cols, err)
				}
				expect(mode+" reuse-off", cols, res)

				reuse, err := NewReuse(core.DefaultConfig(), storage.Options{})
				if err != nil {
					t.Fatal(err)
				}
				ev := NewEvaluator(scn, Options{Worlds: goldenWorlds, Shards: shards, Reuse: reuse})
				for _, render := range []string{"reuse-first", "reuse-second"} {
					res, err := ev.EvaluatePoint(ctx, p.pt)
					if err != nil {
						t.Fatalf("%s %s %s: %v", cols, mode, render, err)
					}
					expect(mode+" "+render, cols, res)
				}
			}

			sk := name + "/sketch/" + mode
			res, err := NewEvaluator(scn, Options{Worlds: goldenWorlds, Shards: shards, SketchOnly: true}).EvaluatePoint(ctx, scn.DefaultPoint())
			if err != nil {
				t.Fatalf("%s: %v", sk, err)
			}
			expect("sketch-only", sk, res)
		}
	}
}
