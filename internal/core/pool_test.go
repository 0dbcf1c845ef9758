package core_test

// Recycled phase engines: every synthesis draws its seven engines from
// process-wide pools and returns them scrubbed, so a run may execute on an
// engine that just served a different design, another matcher mode, or —
// through ExtraRules — never on a pooled engine at all. These tests pin
// that the outputs and the engine-work counts do not depend on any of it.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/prod"
)

// run is one synthesis's observable output: its golden engine-count rows
// (the TestEngineCountsGolden format), Verilog, and firing trace (empty
// for untraced runs).
type run struct {
	counts, verilog, trace string
}

// synthesize runs one benchmark under opt, tracing firings into trace
// when it is non-nil.
func synthesize(t *testing.T, name string, opt core.Options, trace *bytes.Buffer) (run, *core.Result) {
	t.Helper()
	got, res, err := trySynthesize(name, opt, trace)
	if err != nil {
		t.Fatal(err)
	}
	return got, res
}

func trySynthesize(name string, opt core.Options, trace *bytes.Buffer) (run, *core.Result, error) {
	tr, err := bench.Load(name)
	if err != nil {
		return run{}, nil, err
	}
	if trace != nil {
		opt.Trace = trace
	}
	res, err := core.Synthesize(tr, opt)
	if err != nil {
		return run{}, nil, fmt.Errorf("%s: %w", name, err)
	}
	var counts, verilog strings.Builder
	for _, ph := range res.Stats.Phases {
		m := ph.Engine
		fmt.Fprintf(&counts, "%s %s %d %d %d %d %d %d %d %d\n", name, ph.Name,
			ph.Firings, ph.Cycles, m.AlphaEvals, m.JoinTests,
			m.TokenAsserts, m.TokenRetracts, m.ConflictPeak, m.ConflictSum)
	}
	if err := res.Design.WriteVerilog(&verilog, res.Design.Name); err != nil {
		return run{}, nil, fmt.Errorf("%s: %w", name, err)
	}
	got := run{counts: counts.String(), verilog: verilog.String()}
	if trace != nil {
		got.trace = trace.String()
	}
	return got, res, nil
}

// goldens returns each design's committed engine-count rows and Verilog.
func goldens(t *testing.T) map[string]run {
	t.Helper()
	raw, err := os.ReadFile(countsGolden)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]run{}
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(line, " ")
		g := out[name]
		g.counts += line
		out[name] = g
	}
	for _, name := range bench.Names() {
		v, err := os.ReadFile(filepath.Join("..", "rtl", "testdata", "golden", name+".v"))
		if err != nil {
			t.Fatal(err)
		}
		g := out[name]
		g.verilog = string(v)
		out[name] = g
	}
	return out
}

// checkGolden reports a run whose counts or Verilog drifted from golden.
func checkGolden(t *testing.T, label, name string, got run, want map[string]run) {
	t.Helper()
	if got.counts != want[name].counts {
		t.Errorf("%s: %s engine counts drifted:\n%s", label, name, firstDiff(got.counts, want[name].counts))
	}
	if got.verilog != want[name].verilog {
		t.Errorf("%s: %s Verilog drifted:\n%s", label, name, firstDiff(got.verilog, want[name].verilog))
	}
}

// TestRecycledEnginesReproduceGoldens runs the nine designs in orders
// that hand each phase engine a different predecessor — reversed,
// interleaved from both ends, each design twice in a row, and from eight
// goroutines at once — and requires the golden engine counts and Verilog
// every time.
func TestRecycledEnginesReproduceGoldens(t *testing.T) {
	want := goldens(t)
	names := bench.Names()
	var reversed, interleaved, twice []string
	for i := range names {
		reversed = append(reversed, names[len(names)-1-i])
	}
	for lo, hi := 0, len(names)-1; lo <= hi; lo, hi = lo+1, hi-1 {
		interleaved = append(interleaved, names[lo])
		if lo != hi {
			interleaved = append(interleaved, names[hi])
		}
	}
	for _, name := range names {
		twice = append(twice, name, name)
	}
	for _, order := range []struct {
		label string
		names []string
	}{{"reversed", reversed}, {"interleaved", interleaved}, {"twice", twice}} {
		for _, name := range order.names {
			got, _ := synthesize(t, name, core.Options{}, nil)
			checkGolden(t, order.label, name, got, want)
		}
	}

	const workers = 8
	results := make([]map[string]run, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = map[string]run{}
			for i := range names {
				// Each worker starts at a different design, so the pools
				// serve concurrent runs of different designs.
				name := names[(i+w)%len(names)]
				got, _, err := trySynthesize(name, core.Options{}, nil)
				if err != nil {
					t.Error(err)
					return
				}
				results[w][name] = got
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for w, rs := range results {
		for _, name := range names {
			checkGolden(t, fmt.Sprintf("goroutine %d", w), name, rs[name], want)
		}
	}
}

// TestRecycledEnginesAcrossMatcherModes interleaves traced runs under
// every engine option with untraced default runs on the same pools. Every
// traced run must fire the reference trace and emit the reference
// Verilog; every default run must reproduce the golden counts and Verilog
// and write nothing into the previous run's trace; journaled runs must
// record the same journal each time.
func TestRecycledEnginesAcrossMatcherModes(t *testing.T) {
	want := goldens(t)
	modes := []struct {
		label string
		opt   core.Options
	}{
		{"trace", core.Options{}},
		{"exhaustive", core.Options{ExhaustiveMatch: true}},
		{"crosscheck", core.Options{CrossCheckMatch: true}},
		{"journal", core.Options{Journal: true}},
		{"journal", core.Options{Journal: true}},
	}
	for _, name := range []string{"gcd", "traffic", "am2901"} {
		var refTrace bytes.Buffer
		ref, _ := synthesize(t, name, core.Options{}, &refTrace)
		checkGolden(t, "reference", name, ref, want)
		var journal string
		for _, mode := range modes {
			var buf bytes.Buffer
			got, res := synthesize(t, name, mode.opt, &buf)
			if got.trace != ref.trace {
				t.Errorf("%s: %s firing trace diverges:\n%s", mode.label, name, firstDiff(got.trace, ref.trace))
			}
			if got.verilog != ref.verilog {
				t.Errorf("%s: %s Verilog diverges:\n%s", mode.label, name, firstDiff(got.verilog, ref.verilog))
			}
			if res.Journal != nil {
				var b strings.Builder
				res.Journal.WriteText(&b)
				if journal == "" {
					journal = b.String()
				} else if b.String() != journal {
					t.Errorf("%s: journal differs between runs:\n%s", name, firstDiff(b.String(), journal))
				}
			}
			after, _ := synthesize(t, name, core.Options{}, nil)
			checkGolden(t, "default after "+mode.label, name, after, want)
			if buf.Len() != len(got.trace) {
				t.Errorf("default run after %s wrote %d bytes into the previous run's trace", mode.label, buf.Len()-len(got.trace))
			}
		}
	}
}

// TestExtraRulesStayOutOfThePool runs a synthesis whose cleanup phase
// carries an extra rule, then a default one: the extra rule must not fire
// again, and the default run's cleanup engine must hold exactly the
// built-in rules and reproduce the golden counts.
func TestExtraRulesStayOutOfThePool(t *testing.T) {
	want := goldens(t)
	fired := 0
	extra := &prod.Rule{
		Name:     "count-units",
		Category: "cleanup",
		Doc:      "Counts unit elements (test probe).",
		Patterns: []prod.Pattern{prod.P("unit")},
		Action:   func(*prod.Tx, *prod.Match) { fired++ },
	}
	builtin := len(core.KnowledgeBase()["cleanup"])
	cleanup := func(res *core.Result) core.PhaseStats {
		return res.Stats.Phases[len(res.Stats.Phases)-1]
	}

	_, res := synthesize(t, "am2901", core.Options{ExtraRules: []*prod.Rule{extra}}, nil)
	if fired == 0 {
		t.Fatal("extra cleanup rule never fired")
	}
	if got := cleanup(res).Rules; got != builtin+1 {
		t.Fatalf("extended cleanup phase has %d rules, want %d", got, builtin+1)
	}
	before := fired

	got, res := synthesize(t, "am2901", core.Options{}, nil)
	if fired != before {
		t.Errorf("extra rule fired %d times during a default run", fired-before)
	}
	ph := cleanup(res)
	if ph.Rules != builtin || len(ph.Engine.Rules) != builtin {
		t.Errorf("default cleanup engine has %d rules (%d in metrics), want %d", ph.Rules, len(ph.Engine.Rules), builtin)
	}
	for _, r := range ph.Engine.Rules {
		if r.Name == extra.Name {
			t.Errorf("default cleanup engine carries the extra rule %s", r.Name)
		}
	}
	checkGolden(t, "default after extra rules", "am2901", got, want)
}
