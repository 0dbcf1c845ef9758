package main

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"repro/internal/bench"
	"repro/internal/flow"
	"repro/internal/serve"
)

var update = flag.Bool("update", false, "rewrite expected_fronts.json from the current compiler")

// TestExpectedFronts checks the committed sweep table against the paper's
// E10 result, and against the current compiler. With -update it rewrites the
// table instead; do that only after an intended change to the allocators or
// the cost model, and review the diff.
func TestExpectedFronts(t *testing.T) {
	grid, err := sweepFlowGrid()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][]expectedPoint{}
	for _, name := range bench.Names() {
		in, err := bench.Input(name)
		if err != nil {
			t.Fatal(err)
		}
		front, err := flow.Explore(context.Background(), in, flow.Options{}, grid)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range serve.NewExploreResponse(front).Points {
			got[name] = append(got[name], expectedPoint{KnobKey: p.KnobKey, Cost: p.Cost, Area: p.Area, Steps: p.Steps, Frontier: p.Frontier, Failed: p.Failed})
		}
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("expected_fronts.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	chk, err := newChecker("..", bench.Names())
	if err != nil {
		t.Fatal(err)
	}
	for name, pts := range got {
		want := chk.fronts[name]
		if len(pts) != len(want) {
			t.Fatalf("%s: %d points, table has %d", name, len(pts), len(want))
		}
		for i := range pts {
			if pts[i] != want[i] {
				t.Errorf("%s point %d: compiler gives %+v, table has %+v", name, i, pts[i], want[i])
			}
		}
	}
}
