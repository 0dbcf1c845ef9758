package main

// The replay phase of the traced run: after the HTTP load has stopped,
// inputs of the workload's stream are pushed one at a time through the
// public functions of each layer, in pipeline order, each call inside its
// own span. Every replayed input carries a fresh salt, so no call is served
// from a cache the load filled.

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/flow"
	"repro/internal/isps"
	"repro/internal/prod"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/vt"
)

// replayRounds is how many balanced rounds the replay runs: enough for a
// per-design median, small enough to stay a few seconds on mcs6502.
const replayRounds = 3

// engineCounts are the exact per-synthesis engine counts.
type engineCounts struct {
	firings, cycles, matchCalls, alphaEvals, joinTests  int
	tokenAsserts, tokenRetracts, rebuilds, conflictPeak int
	cosimSamples, ops                                   int
}

// replayResult holds what the replay measured outside its spans.
type replayResult struct {
	// counts is per design, from the first round; later rounds must match.
	counts    map[string]engineCounts
	phaseMS   map[string]map[string][]time.Duration // phase -> design -> elapsed
	matchTime map[string][]time.Duration            // design -> engine match time
	allocKB   map[string][]float64                  // design -> TotalAlloc delta of one synthesis
}

// compileOptions are the flow options equivalent to the workload's request.
func compileOptions(wl *workload) flow.Options {
	if wl.explore {
		return flow.Options{}
	}
	return flow.Options{EmitVerilog: synthArtifacts.Verilog, Cosim: synthOptions.Verify}
}

// replayer carries the state of one replay phase.
type replayer struct {
	ctx  context.Context
	wl   *workload
	gen  *generator
	chk  *checker
	tr   *tracer
	kb   map[string][]*prod.Rule
	grid flow.Grid
	rr   *replayResult
}

// replay runs replayRounds rounds of the stream through every layer.
func replay(ctx context.Context, wl *workload, gen *generator, chk *checker, tr *tracer) (*replayResult, error) {
	grid, err := sweepFlowGrid()
	if err != nil {
		return nil, err
	}
	rp := &replayer{ctx: ctx, wl: wl, gen: gen, chk: chk, tr: tr, kb: core.KnowledgeBase(), grid: grid, rr: &replayResult{
		counts:    map[string]engineCounts{},
		phaseMS:   map[string]map[string][]time.Duration{},
		matchTime: map[string][]time.Duration{},
		allocKB:   map[string][]float64{},
	}}
	for i := 0; i < replayRounds*len(gen.names); i++ {
		d := gen.designAt(i)
		design := gen.names[d]
		root := tr.begin(0, "replay", design)
		c, err := rp.one(root, i, d)
		tr.end(root)
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", design, err)
		}
		if prev, ok := rp.rr.counts[design]; ok && prev != c {
			return nil, fmt.Errorf("replay %s: engine counts differ between rounds: %+v then %+v", design, prev, c)
		}
		rp.rr.counts[design] = c
	}
	return rp.rr, nil
}

// one replays stream position i (design d) under the root span.
func (rp *replayer) one(root, i, d int) (engineCounts, error) {
	ctx, wl, gen, chk, tr, rr := rp.ctx, rp.wl, rp.gen, rp.chk, rp.tr, rp.rr
	design := gen.names[d]
	name := design + ".isps"
	src := gen.salted(d, fmt.Sprintf("replay-%d", i))
	var (
		c    engineCounts
		ast  *isps.Program
		prog *vt.Program
		res  *core.Result
		err  error
	)
	step := func(span string, fn func() error) error { return tr.timed(root, span, design, fn) }

	if err := step("isps.ParseOnly", func() error { ast, err = isps.ParseOnly(name, src); return err }); err != nil {
		return c, err
	}
	if err := step("isps.Analyze", func() error { return isps.Analyze(ast) }); err != nil {
		return c, err
	}
	if err := step("vt.Build", func() error { prog, err = vt.Build(ast); return err }); err != nil {
		return c, err
	}
	c.ops = prog.OpCount()
	// prod.NewEngine + AddRule over the knowledge base: the per-phase
	// network compilation every synthesis repeats.
	_ = step("prod.compile", func() error {
		for _, phase := range core.PhaseOrder {
			eng := prod.NewEngine(prod.NewWM())
			for _, r := range rp.kb[phase] {
				eng.AddRule(r)
			}
		}
		return nil
	})
	var clone *vt.Program
	_ = step("vt.Clone", func() error { clone = vt.Clone(prog); return nil })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = step("core.SynthesizeContext", func() error { res, err = core.SynthesizeContext(ctx, clone, core.Options{}); return err })
	runtime.ReadMemStats(&after)
	if err != nil {
		return c, err
	}
	rr.allocKB[design] = append(rr.allocKB[design], float64(after.TotalAlloc-before.TotalAlloc)/1024)
	st := res.Stats
	em := st.EngineMetrics()
	c.firings, c.cycles, c.matchCalls = st.TotalFirings, st.TotalCycles, em.MatchCalls
	c.alphaEvals, c.joinTests, c.rebuilds, c.conflictPeak = em.AlphaEvals, em.JoinTests, em.Rebuilds, em.ConflictPeak
	c.tokenAsserts, c.tokenRetracts = em.TokenAsserts, em.TokenRetracts
	rr.matchTime[design] = append(rr.matchTime[design], em.MatchTime)
	for _, ph := range st.Phases {
		if rr.phaseMS[ph.Name] == nil {
			rr.phaseMS[ph.Name] = map[string][]time.Duration{}
		}
		rr.phaseMS[ph.Name][design] = append(rr.phaseMS[ph.Name][design], ph.Elapsed)
	}

	if err := step("rtl.Validate", res.Design.Validate); err != nil {
		return c, err
	}
	var sb strings.Builder
	if err := step("rtl.WriteVerilog", func() error { return res.Design.WriteVerilog(&sb, res.Design.Name) }); err != nil {
		return c, err
	}
	if sb.String() != string(chk.golden[design]) {
		return c, fmt.Errorf("replayed Verilog differs from the golden file")
	}
	_ = step("cost.Design", func() error { cost.Default().Design(res.Design); return nil })
	if wl.cosim {
		var rep *flow.CosimReport
		if err := step("flow.RunCosim", func() error { rep, err = flow.RunCosim(ast, res.Design, flow.CosimParams{}); return err }); err != nil {
			return c, err
		}
		if !rep.Equivalent {
			return c, fmt.Errorf("cosim verdict is not equivalent")
		}
		c.cosimSamples = rep.Samples
	}

	// The baseline allocators and the list scheduler the sweep's four
	// non-DAA points run, each on its own clone.
	clones := []*vt.Program{vt.Clone(prog), vt.Clone(prog), vt.Clone(prog)}
	if err := step("alloc.LeftEdge", func() error { _, err := alloc.LeftEdge(clones[0], alloc.Options{}); return err }); err != nil {
		return c, err
	}
	if err := step("alloc.Naive", func() error { _, err := alloc.Naive(clones[1], alloc.Options{}); return err }); err != nil {
		return c, err
	}
	// alloc's default limits: one unit per compute kind present.
	lim := sched.Limits{UnitsPerKind: map[vt.OpKind]int{}}
	for _, op := range prog.AllOps() {
		if op.Kind.IsCompute() {
			lim.UnitsPerKind[op.Kind] = 1
		}
	}
	if err := step("sched.List", func() error { _, err := sched.ProgramWith(sched.SchedList, clones[2], lim); return err }); err != nil {
		return c, err
	}

	// Whole-pipeline calls, each on its own salt so the front-end cache
	// misses as it does for a new design.
	in := flow.Input{Name: name, Source: gen.salted(d, fmt.Sprintf("replay-compile-%d", i))}
	if err := step("flow.Compile", func() error { _, err := flow.Compile(ctx, in, compileOptions(wl)); return err }); err != nil {
		return c, err
	}
	in.Source = gen.salted(d, fmt.Sprintf("replay-explore-%d", i))
	var front *flow.Front
	if err := step("flow.Explore", func() error { front, err = flow.Explore(ctx, in, flow.Options{}, rp.grid); return err }); err != nil {
		return c, err
	}
	return c, chk.compareFront(design, serve.NewExploreResponse(front).Points)
}
