package flow_test

// Tests of the emit and cosim stages: every embedded benchmark's design
// must agree with its behavioral description under the default seeded
// stimulus, the verdict must be deterministic, and a deliberately
// corrupted design must produce a mismatch with a counterexample cycle.

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/isps"
	"repro/internal/vt"
)

// TestCosimAllBenchmarks is the acceptance check behind daa -verify and
// CI's cosim-equivalence job: all nine designs pass behavioral-vs-RTL
// co-simulation, in parallel across the flow worker pool.
func TestCosimAllBenchmarks(t *testing.T) {
	names := bench.Names()
	results := make([]*flow.Result, len(names))
	err := flow.RunAll(context.Background(), len(names), func(ctx context.Context, i int) error {
		in, err := bench.Input(names[i])
		if err != nil {
			return err
		}
		results[i], err = flow.Compile(ctx, in, flow.Options{Cosim: true, EmitVerilog: true})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		rep := res.Cosim
		if rep == nil {
			t.Fatalf("%s: no cosim report on the result", names[i])
		}
		if !rep.Equivalent {
			t.Errorf("%s: %s", names[i], rep.Summary())
		}
		if rep.Samples == 0 {
			t.Errorf("%s: verdict with zero samples proves nothing", names[i])
		}
		if rep.Seed != flow.DefaultCosimSeed || rep.Vectors != flow.DefaultCosimVectors || rep.Cycles != flow.DefaultCosimCycles {
			t.Errorf("%s: defaults not applied: %+v", names[i], rep)
		}
		if res.Verilog == "" || !strings.Contains(res.Verilog, "module") {
			t.Errorf("%s: emit stage produced no Verilog", names[i])
		}
		st, ok := res.Trace.Stage(flow.StageCosim)
		if !ok || !strings.Contains(st.Note, "equivalent") {
			t.Errorf("%s: cosim stage note %q, want verdict summary", names[i], st.Note)
		}
		if st, ok := res.Trace.Stage(flow.StageEmit); !ok || !strings.Contains(st.Note, "Verilog") {
			t.Errorf("%s: emit stage note %q, want byte count", names[i], st.Note)
		}
	}
}

// TestCosimDeterministic: the verdict is a pure function of
// (source, options) — the property that lets the daemon cache it.
func TestCosimDeterministic(t *testing.T) {
	in, err := bench.Input("gcd")
	if err != nil {
		t.Fatal(err)
	}
	opt := flow.Options{Cosim: true, CosimSeed: 7, CosimVectors: 6, CosimCycles: 2}
	a, err := flow.Compile(context.Background(), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := flow.Compile(context.Background(), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Cosim, b.Cosim) {
		t.Errorf("same seed, different verdicts:\n%+v\n%+v", a.Cosim, b.Cosim)
	}
	if a.Cosim.Seed != 7 || a.Cosim.Vectors != 6 || a.Cosim.Cycles != 2 {
		t.Errorf("stimulus parameters not honored: %+v", a.Cosim)
	}
}

// TestCosimMismatchCounterexample corrupts a synthesized design — two
// register carriers aliased onto one physical register — and demands a
// mismatch verdict with a counterexample cycle and stimulus.
func TestCosimMismatchCounterexample(t *testing.T) {
	in, err := bench.Input("gcd")
	if err != nil {
		t.Fatal(err)
	}
	res, err := flow.Compile(context.Background(), in, flow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	x := res.Design.Trace.CarrierByName("X")
	y := res.Design.Trace.CarrierByName("Y")
	if x == nil || y == nil {
		t.Fatal("gcd trace lost its X/Y carriers")
	}
	if res.Design.CarrierReg[x] == res.Design.CarrierReg[y] {
		t.Fatal("X and Y share a register before corruption; pick different carriers")
	}
	res.Design.CarrierReg[x] = res.Design.CarrierReg[y]

	rep, err := flow.RunCosim(res.AST, res.Design, flow.CosimParams{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Equivalent {
		t.Fatal("corrupted design reported equivalent")
	}
	m := rep.Mismatch
	if m == nil {
		t.Fatal("mismatch verdict without a counterexample")
	}
	if m.Vector < 0 || m.Vector >= rep.Vectors || m.Cycle < 0 || m.Cycle >= rep.Cycles {
		t.Errorf("counterexample outside the stimulus: vector %d cycle %d", m.Vector, m.Cycle)
	}
	if m.Detail == "" && m.Carrier == "" {
		t.Errorf("counterexample names nothing: %+v", m)
	}
	if len(m.Inputs) == 0 {
		t.Errorf("counterexample carries no stimulus: %+v", m)
	}
	if !strings.Contains(rep.Summary(), "MISMATCH") {
		t.Errorf("summary %q, want MISMATCH", rep.Summary())
	}
	var sb strings.Builder
	rep.Write(&sb)
	if !strings.Contains(sb.String(), "FAIL") || !strings.Contains(sb.String(), "counterexample stimulus:") {
		t.Errorf("verdict block incomplete:\n%s", sb.String())
	}
}

// TestStageListComposition pins the stage-list refactor's contract:
// cached and uncached compilations of the same option set produce
// identical Trace.Stages names in the same order, and the emit/cosim
// stages appear exactly when selected, in pipeline order.
func TestStageListComposition(t *testing.T) {
	base := []string{flow.StageParse, flow.StageSema, flow.StageBuild,
		flow.StageAllocate, flow.StageValidate, flow.StageCost}
	cases := []struct {
		name string
		opt  flow.Options
		want []string
	}{
		{"default", flow.Options{}, base},
		{"emit", flow.Options{EmitVerilog: true}, append(append([]string{}, base...), flow.StageEmit)},
		{"cosim", flow.Options{Cosim: true}, append(append([]string{}, base...), flow.StageCosim)},
		{"emit+cosim", flow.Options{EmitVerilog: true, Cosim: true},
			append(append([]string{}, base...), flow.StageEmit, flow.StageCosim)},
	}
	in, err := bench.Input("counter")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			uncached := c.opt
			uncached.NoCache = true
			cold, err := flow.Compile(context.Background(), in, uncached)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := flow.Compile(context.Background(), in, c.opt); err != nil {
				t.Fatal(err) // prime the artifact cache
			}
			warm, err := flow.Compile(context.Background(), in, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			if got := stageNames(cold.Trace); !reflect.DeepEqual(got, c.want) {
				t.Errorf("uncached stages %v, want %v", got, c.want)
			}
			if got := stageNames(warm.Trace); !reflect.DeepEqual(got, c.want) {
				t.Errorf("cached stages %v, want %v", got, c.want)
			}
			if st, _ := warm.Trace.Stage(flow.StageParse); !st.Cached {
				t.Error("warm compile's parse stage not cache-served")
			}
		})
	}
}

func stageNames(tr flow.Trace) []string {
	names := make([]string, len(tr.Stages))
	for i, s := range tr.Stages {
		names[i] = s.Stage
	}
	return names
}

// Both simulators build fresh machines for every vector, and the MCS6502
// declares a 64K-word memory: flat storage would allocate 512 KiB per
// machine. With paged memories a whole default cosim run allocates less
// than one such memory.
func TestCosimAllocBelowDeclaredMemory(t *testing.T) {
	src, err := bench.Source("mcs6502")
	if err != nil {
		t.Fatal(err)
	}
	ast, err := isps.Parse("mcs6502", src)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := vt.Build(ast)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Synthesize(tr, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	declared := 0
	for _, c := range tr.Carriers {
		if c.Kind == vt.CarMem {
			declared += c.Words * 8
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := flow.RunCosim(ast, res.Design, flow.CosimParams{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Equivalent {
		t.Fatalf("mcs6502 cosim: %s", rep.Summary())
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("cosim allocated %d KiB over %d vectors; declared memory %d KiB", got>>10, rep.Vectors, declared>>10)
	if declared < 1<<19 {
		t.Fatalf("declared memory %d bytes, want the 64K-word processor memory", declared)
	}
	if got >= uint64(declared) {
		t.Errorf("cosim allocated %d bytes, want less than one declared memory (%d bytes)", got, declared)
	}
}
