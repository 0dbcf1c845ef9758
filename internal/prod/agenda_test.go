package prod

import (
	"bytes"
	"math/rand"
	"testing"
)

// checkAgenda asserts the agenda invariant for every rule: the agenda
// holds exactly the conflict-set entries whose refraction key has not
// fired, each flagged onAgenda, in ascending conflict-resolution order.
func checkAgenda(t *testing.T, e *Engine) {
	t.Helper()
	for _, rr := range e.rete.rules {
		want := 0
		for _, m := range rr.cs {
			if !e.fired[refractionKey(m)] {
				want++
				if !m.onAgenda {
					t.Fatalf("rule %s: unfired %s missing from the agenda", rr.r.Name, describeMatch(m))
				}
			} else if m.onAgenda {
				t.Fatalf("rule %s: fired %s still on the agenda", rr.r.Name, describeMatch(m))
			}
		}
		if len(rr.agenda) != want {
			t.Fatalf("rule %s: agenda holds %d entries, want %d", rr.r.Name, len(rr.agenda), want)
		}
		for i := 1; i < len(rr.agenda); i++ {
			if !outranks(rr.agenda[i], rr.agenda[i-1]) {
				t.Fatalf("rule %s: agenda out of order at %d: %s before %s", rr.r.Name, i,
					describeMatch(rr.agenda[i-1]), describeMatch(rr.agenda[i]))
			}
		}
	}
}

// A randomized workload whose actions make, remove, and modify elements —
// including recency-only modifies of attributes no pattern reads — keeps
// the agenda equal to the sorted unfired conflict set at every firing,
// while CrossCheck holds the selections to the scanning matchers.
func TestAgendaInvariant(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		wm := NewWM()
		for i := 0; i < 12; i++ {
			wm.Make("a", Attrs{"k": rng.Intn(4), "g": rng.Intn(3)})
			wm.Make("b", Attrs{"g": rng.Intn(3)})
		}
		eng := NewEngine(wm)
		eng.CrossCheck = true
		eng.MaxFirings = 200
		mutate := func(tx *Tx, m *Match) {
			checkAgenda(t, eng)
			w := tx.WM()
			el := m.El(rng.Intn(len(m.Elements)))
			switch rng.Intn(6) {
			case 0:
				w.Make("a", Attrs{"k": rng.Intn(4), "g": rng.Intn(3)})
			case 1:
				w.Make("b", Attrs{"g": rng.Intn(3)})
			case 2:
				w.Remove(el)
			case 3:
				w.Modify(el, Attrs{"k": rng.Intn(10)})
			default:
				w.Modify(el, Attrs{"note": rng.Intn(1000)}) // recency only
			}
		}
		for _, r := range testRules() {
			r.Action = mutate
			eng.AddRule(r)
		}
		if err := eng.Run(); err != nil && eng.Firings() < eng.MaxFirings {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if eng.Firings() == 0 {
			t.Fatalf("seed %d: workload never fired", seed)
		}
	}
}

// Where runs lazily, in rank order: with every test passing it runs once
// per firing, and an instantiation that fails it stays scheduled and
// fires once its test passes.
func TestAgendaWhereLazy(t *testing.T) {
	wm := NewWM()
	for i := 0; i < 20; i++ {
		wm.Make("x", Attrs{"i": i})
	}
	gate := wm.Make("gate", Attrs{"open": false})
	eng := NewEngine(wm)
	calls := 0
	var order []int
	eng.AddRule(&Rule{
		Name:     "visit",
		Patterns: []Pattern{P("x")},
		Where: func(m *Match) bool {
			calls++
			// The newest element waits until the gate opens.
			return m.El(0).Int("i") != 19 || gate.Bool("open")
		},
		Action: func(tx *Tx, m *Match) {
			order = append(order, m.El(0).Int("i"))
			if len(order) == 19 {
				tx.WM().Modify(gate, Attrs{"open": true})
			}
		},
	})
	run(t, eng)
	if len(order) != 20 || order[0] != 18 || order[19] != 19 {
		t.Fatalf("firing order %v, want 18 down to 0, then the gated 19", order)
	}
	// 19 firings each skip the gated instantiation once, then 20 passes.
	if calls != 19*2+1 {
		t.Errorf("Where ran %d times, want %d", calls, 19*2+1)
	}
}

// The Rete matcher never reads the working memory's attribute index, so
// a Rete-only run leaves it unbuilt.
func TestReteRunLeavesAttrIndexUnbuilt(t *testing.T) {
	wm := NewWM()
	for i := 0; i < 30; i++ {
		wm.Make("a", Attrs{"k": i % 5, "g": i % 3})
	}
	eng := NewEngine(wm)
	eng.AddRule(&Rule{
		Name:     "promote",
		Patterns: []Pattern{P("a").Absent("done").Bind("g", "g"), N("b").Bind("g", "g")},
		Action: func(e *Tx, m *Match) {
			e.WM().Modify(m.El(0), Attrs{"done": true})
			if m.El(0).Int("k") == 0 {
				e.WM().Make("b", Attrs{"g": m.El(0).Get("g")})
			}
		},
	})
	run(t, eng)
	if eng.Firings() == 0 {
		t.Fatal("workload never fired")
	}
	if wm.byAttr != nil {
		t.Errorf("Rete-only run built the attribute index (%d keys)", len(wm.byAttr))
	}
}

// Switching to the exhaustive matcher mid-run builds the attribute index
// from the live elements, and the firing trace still equals a run that
// was exhaustive throughout.
func TestExhaustiveSwitchBuildsAttrIndex(t *testing.T) {
	trace := func(switchAt int, crossCheck bool) (string, *WM) {
		wm := NewWM()
		for i := 0; i < 30; i++ {
			wm.Make("a", Attrs{"k": i % 5, "g": i % 3})
		}
		eng := NewEngine(wm)
		var buf bytes.Buffer
		eng.TraceWriter = &buf
		eng.Exhaustive = switchAt == 0
		eng.AddRule(&Rule{
			Name:     "promote",
			Patterns: []Pattern{P("a").Absent("done").Bind("g", "g"), N("b").Bind("g", "g")},
			Action: func(e *Tx, m *Match) {
				if eng.Firings() == switchAt {
					eng.Exhaustive = !crossCheck
					eng.CrossCheck = crossCheck
				}
				e.WM().Modify(m.El(0), Attrs{"done": true})
				if m.El(0).Int("k") == 0 {
					e.WM().Make("b", Attrs{"g": m.El(0).Get("g")})
				}
			},
		})
		eng.AddRule(&Rule{
			Name:     "retire",
			Patterns: []Pattern{P("b").Bind("g", "g"), P("a").Eq("done", true).Bind("g", "g")},
			Action:   func(e *Tx, m *Match) { e.WM().Remove(m.El(1)) },
		})
		run(t, eng)
		return buf.String(), wm
	}
	want, _ := trace(0, false)
	for _, crossCheck := range []bool{false, true} {
		got, wm := trace(5, crossCheck)
		if wm.byAttr == nil {
			t.Errorf("crossCheck=%v: attribute index not built after the switch", crossCheck)
		}
		if got != want {
			t.Errorf("crossCheck=%v: trace after the switch diverges from the exhaustive run:\n got: %s\nwant: %s",
				crossCheck, got, want)
		}
	}
}
