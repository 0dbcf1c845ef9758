package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/flow"
	"repro/internal/serve"
)

// TestStreamDeterminism: the same seed yields byte-identical request
// streams, every round holds each design exactly once, and another seed
// draws another order.
func TestStreamDeterminism(t *testing.T) {
	const n = 5 * 9
	for _, wl := range workloads {
		a, err := newGenerator(wl, 42)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newGenerator(wl, 42)
		if err != nil {
			t.Fatal(err)
		}
		other, err := newGenerator(wl, 43)
		if err != nil {
			t.Fatal(err)
		}
		sameOrder := true
		seen := map[int]bool{}
		for i := 0; i < n; i++ {
			da, ba, err := a.input(i)
			if err != nil {
				t.Fatal(err)
			}
			db, bb, err := b.input(i)
			if err != nil {
				t.Fatal(err)
			}
			if da != db || !bytes.Equal(ba, bb) {
				t.Fatalf("%s: input %d differs between two generators of seed 42", wl.name, i)
			}
			if seen[da] {
				t.Fatalf("%s: design %d twice in round %d", wl.name, da, i/9)
			}
			seen[da] = true
			if len(seen) == 9 {
				seen = map[int]bool{}
			}
			if other.designAt(i) != da {
				sameOrder = false
			}
		}
		if sameOrder {
			t.Errorf("%s: seeds 42 and 43 draw the same order", wl.name)
		}
	}
}

// TestSaltNeutral: a salted input changes the content hash but not the
// design: same Verilog, same cost, same cosim verdict.
func TestSaltNeutral(t *testing.T) {
	wl, _ := workloadByName("cold-synth")
	gen, err := newGenerator(wl, 7)
	if err != nil {
		t.Fatal(err)
	}
	opt := compileOptions(wl)
	for d, name := range gen.names {
		plain := flow.Input{Name: name + ".isps", Source: gen.sources[d]}
		salted := flow.Input{Name: plain.Name, Source: gen.salted(d, "123")}
		if plain.ContentHash() == salted.ContentHash() {
			t.Fatalf("%s: salt left the content hash unchanged", name)
		}
		a, err := flow.Compile(context.Background(), plain, opt)
		if err != nil {
			t.Fatal(err)
		}
		b, err := flow.Compile(context.Background(), salted, opt)
		if err != nil {
			t.Fatal(err)
		}
		if a.Verilog != b.Verilog || a.Cost != b.Cost || a.Cosim.Equivalent != b.Cosim.Equivalent {
			t.Errorf("%s: salted input synthesizes differently", name)
		}
	}
}

// TestCheckerFlagsCorruption: a checker that cannot fail proves nothing.
// One flipped byte of Verilog, one flipped byte of a hot-repeat body and one
// perturbed cost in a front must each be flagged.
func TestCheckerFlagsCorruption(t *testing.T) {
	chk, err := newChecker("..", bench.Names())
	if err != nil {
		t.Fatal(err)
	}
	in, err := bench.Input("gcd")
	if err != nil {
		t.Fatal(err)
	}
	res, err := flow.Compile(context.Background(), in, compileOptions(workloads[0]))
	if err != nil {
		t.Fatal(err)
	}
	good := serve.SynthesizeResponse{Name: "gcd", Artifacts: &serve.Artifacts{Verilog: res.Verilog},
		Equivalence: &serve.Equivalence{Equivalent: res.Cosim.Equivalent}}
	body, _ := json.Marshal(good)
	if err := chk.checkSynth("gcd", body); err != nil {
		t.Fatalf("good response rejected: %v", err)
	}
	flipped := good
	v := []byte(res.Verilog)
	v[len(v)/2] ^= 1
	flipped.Artifacts = &serve.Artifacts{Verilog: string(v)}
	body, _ = json.Marshal(flipped)
	if chk.checkSynth("gcd", body) == nil {
		t.Error("flipped Verilog byte not flagged")
	}
	wrongVerdict := good
	wrongVerdict.Equivalence = &serve.Equivalence{Equivalent: false}
	body, _ = json.Marshal(wrongVerdict)
	if chk.checkSynth("gcd", body) == nil {
		t.Error("non-equivalent verdict not flagged")
	}

	hot, _ := workloadByName("hot-repeat")
	chk.warm["gcd"] = []byte(`{"name":"gcd"}`)
	if err := chk.check(hot, "gcd", []byte(`{"name":"gcd"}`)); err != nil {
		t.Fatalf("identical hot-repeat body rejected: %v", err)
	}
	if chk.check(hot, "gcd", []byte(`{"name":"gce"}`)) == nil {
		t.Error("flipped hot-repeat byte not flagged")
	}

	var pts []serve.ExplorePoint
	for _, p := range chk.fronts["mcs6502"] {
		pts = append(pts, serve.ExplorePoint{KnobKey: p.KnobKey, Cost: p.Cost, Area: p.Area, Steps: p.Steps, Frontier: p.Frontier, Failed: p.Failed})
	}
	if err := chk.compareFront("mcs6502", pts); err != nil {
		t.Fatalf("committed front rejected: %v", err)
	}
	pts[1].Cost += 0.1
	if chk.compareFront("mcs6502", pts) == nil {
		t.Error("perturbed cost not flagged")
	}
}

// TestExpectedFrontsMatchE10 cross-checks the committed sweep table with the
// documented E10 result on mcs6502: DAA with cleanup is the only frontier
// point, at 7955.9 GE, and no point fails.
func TestExpectedFrontsMatchE10(t *testing.T) {
	chk, err := newChecker("..", bench.Names())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range chk.fronts["mcs6502"] {
		paper := p.KnobKey == "allocator=daa;cleanup=true"
		if p.Frontier != paper {
			t.Errorf("%s: frontier %v", p.KnobKey, p.Frontier)
		}
		if paper && p.Cost != 7955.9 {
			t.Errorf("paper point costs %v GE, E10 documents 7955.9", p.Cost)
		}
		if p.Failed {
			t.Errorf("%s failed", p.KnobKey)
		}
	}
}

// perLayerNames reads the per-layer metric names from BENCHMARK.json.
func perLayerNames(t *testing.T) []string {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range spec.PerLayer {
		names = append(names, m.Name)
	}
	return names
}

// TestShortRuns: a short run of each workload has zero failures, and its
// traced variant emits every per-layer metric BENCHMARK.json lists, with the
// cache ratios the workloads are defined by.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("boots every topology")
	}
	names := perLayerNames(t)
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			r := &runner{wl: wl, seed: 3, dur: 2 * time.Second, root: "..", outdir: t.TempDir()}
			res, err := r.traced()
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", res.Attempted, res.Failed, r.firstErr)
			}
			for _, n := range names {
				if _, ok := res.Metrics[n]; !ok {
					t.Errorf("per-layer metric %s missing", n)
				}
			}
			hit := res.Metrics["serve.design_cache.hit_ratio"].Value
			front := res.Metrics["flow.front_cache.hit_ratio"].Value
			switch wl.name {
			case "cold-synth":
				if hit != 0 || front != 0 {
					t.Errorf("cold-synth: design-cache hit ratio %v, front-cache hit ratio %v, want 0 and 0", hit, front)
				}
			case "hot-repeat":
				if hit != 1 {
					t.Errorf("hot-repeat: design-cache hit ratio %v, want 1", hit)
				}
			case "sweep":
				if front < 5.0/6 {
					t.Errorf("sweep: front-cache hit ratio %v, want >= 5/6", front)
				}
			}
		})
	}
}

// TestReplayCountsRepeat: the engine counts of two replays of the same
// seed are identical.
func TestReplayCountsRepeat(t *testing.T) {
	wl, _ := workloadByName("sweep")
	gen, err := newGenerator(wl, 5)
	if err != nil {
		t.Fatal(err)
	}
	chk, err := newChecker("..", gen.names)
	if err != nil {
		t.Fatal(err)
	}
	a, err := replay(context.Background(), wl, gen, chk, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := replay(context.Background(), wl, gen, chk, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.counts, b.counts) {
		t.Errorf("counts differ:\n%+v\n%+v", a.counts, b.counts)
	}
}
