package prod

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// poolHost is the per-run state of poolRules; the rules reach it only
// through Tx.Host and Match.Host.
type poolHost struct {
	maxG  int // Where admits promotions of groups below it
	notes []string
}

// poolRules churns every piece of engine state a run grows: joins with
// projections, negation blocking and unblocking, modifies that re-rank
// the agenda, makes and removes, and a Where test reading host state.
var poolRules = []*Rule{
	{
		Name:     "promote",
		Patterns: []Pattern{P("a").Absent("done").Bind("g", "g").Bind("k", "k"), N("b").Bind("g", "g")},
		Where:    func(m *Match) bool { return m.Int("g") < m.Host().(*poolHost).maxG },
		Action: func(tx *Tx, m *Match) {
			tx.Modify(m.El(0), Attrs{"done": true})
			if m.Int("k") == 0 {
				tx.Make("b", Attrs{"g": m.Get("g")})
			}
		},
	},
	{
		Name:     "retire",
		Patterns: []Pattern{P("b").Bind("g", "g"), P("a").Eq("done", true).Bind("g", "g").Bind("k", "k")},
		Action: func(tx *Tx, m *Match) {
			h := tx.Host().(*poolHost)
			h.notes = append(h.notes, fmt.Sprintf("retire g=%d k=%d", m.Int("g"), m.Int("k")))
			tx.Remove(m.El(1))
		},
	},
	{
		Name:     "drain",
		Patterns: []Pattern{P("b").Bind("g", "g"), N("a").Bind("g", "g")},
		Action:   func(tx *Tx, m *Match) { tx.Remove(m.El(0)) },
	},
}

// poolRun seeds a workload of size n, runs eng over it with a fresh host,
// and renders everything observable about the run.
func poolRun(t *testing.T, eng *Engine, wm *WM, n int) string {
	t.Helper()
	for i := 0; i < n; i++ {
		wm.Make("a", Attrs{"k": i % 5, "g": i % 4})
	}
	h := &poolHost{maxG: 3}
	var trace bytes.Buffer
	eng.Host = h
	eng.TraceWriter = &trace
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	m := eng.Metrics()
	return fmt.Sprintf("%s%v\nfirings=%d cycles=%d calls=%d alpha=%d joins=%d asserts=%d retracts=%d rebuilds=%d peak=%d sum=%d live=%d",
		trace.String(), h.notes, m.Firings, m.Cycles, m.MatchCalls, m.AlphaEvals, m.JoinTests,
		m.TokenAsserts, m.TokenRetracts, m.Rebuilds, m.ConflictPeak, m.ConflictSum, m.TokensLive)
}

// A recycled engine must behave exactly like a freshly compiled one, for
// runs both larger and smaller than the run before.
func TestPoolRecycledEngineMatchesFresh(t *testing.T) {
	fresh := func(n int) string {
		wm := NewWM()
		eng := NewEngine(wm)
		for _, r := range poolRules {
			eng.AddRule(r)
		}
		return poolRun(t, eng, wm, n)
	}
	p := NewPool(poolRules)
	wm := NewWM()
	eng := p.Get(wm)
	for _, n := range []int{40, 12, 60, 12} {
		if got, want := poolRun(t, eng, wm, n), fresh(n); got != want {
			t.Fatalf("n=%d: recycled engine diverges from a fresh one:\n--- recycled\n%s\n--- fresh\n%s", n, got, want)
		}
		// Recycle the same engine directly: sync.Pool may drop a Put.
		eng.scrub()
		wm = NewWM()
		eng.attach(wm)
	}
}

// Get must hand out an engine whose exported fields are all at their
// NewEngine defaults, whatever the previous run set.
func TestPoolGetRestoresDefaults(t *testing.T) {
	p := NewPool(poolRules)
	eng := p.Get(NewWM())
	eng.MaxFirings = 7
	eng.Interrupt = func() error { return nil }
	eng.TraceWriter = &bytes.Buffer{}
	eng.Exhaustive, eng.CrossCheck = true, true
	eng.Apply = func(string, []any) (any, error) { return nil, nil }
	eng.Host = &poolHost{}
	eng.scrub()
	wm := NewWM()
	eng.attach(wm)
	want := NewEngine(wm)
	got := reflect.ValueOf(eng).Elem()
	ref := reflect.ValueOf(want).Elem()
	for i := 0; i < got.NumField(); i++ {
		f := got.Type().Field(i)
		if !f.IsExported() {
			continue
		}
		g, w := got.Field(i), ref.Field(i)
		if f.Type.Kind() == reflect.Func {
			if !g.IsNil() {
				t.Errorf("%s not reset", f.Name)
			}
			continue
		}
		if !reflect.DeepEqual(g.Interface(), w.Interface()) {
			t.Errorf("%s = %v after Get, want the NewEngine default %v", f.Name, g.Interface(), w.Interface())
		}
	}
}

// After a scrub nothing in the engine may still point at the finished
// run: no element, binding, match, host, journal or working memory, in any
// slot of any buffer, past its length included.
func TestPoolScrubDropsRunState(t *testing.T) {
	for _, mode := range []string{"rete", "crosscheck"} {
		p := NewPool(poolRules)
		wm := NewWM()
		eng := p.Get(wm)
		eng.CrossCheck = mode == "crosscheck"
		eng.Apply = func(string, []any) (any, error) { return nil, nil }
		eng.RecordJournal(nil)
		poolRun(t, eng, wm, 60)
		eng.scrub()

		if eng.WM != nil || eng.Host != nil || eng.Apply != nil || eng.TraceWriter != nil || eng.jr != nil || eng.cur != nil {
			t.Errorf("%s: run references survive the scrub", mode)
		}
		if len(eng.fired) != 0 || eng.firings != 0 || eng.cycles != 0 {
			t.Errorf("%s: firing state survives the scrub", mode)
		}
		for _, c := range eng.pending[:cap(eng.pending)] {
			if c.El != nil {
				t.Errorf("%s: pending change still holds element #%d", mode, c.El.ID)
			}
		}
		for _, ev := range eng.rete.events[:cap(eng.rete.events)] {
			if ev.el != nil {
				t.Errorf("%s: alpha event still holds element #%d", mode, ev.el.ID)
			}
		}
		for _, mem := range eng.rete.alpha.memList {
			for _, en := range mem.entries[:cap(mem.entries)] {
				if en.el != nil {
					t.Errorf("%s: alpha memory %d still holds element #%d", mode, mem.id, en.el.ID)
				}
			}
			if len(mem.idx) != 0 {
				t.Errorf("%s: alpha memory %d index survives", mode, mem.id)
			}
			for _, ix := range mem.indexes {
				for _, k := range ix.keys[:cap(ix.keys)] {
					if k != nil {
						t.Errorf("%s: alpha memory %d value index still holds key %v", mode, mem.id, k)
					}
				}
				if len(ix.bucket) != 0 {
					t.Errorf("%s: alpha memory %d value buckets survive", mode, mem.id)
				}
			}
		}
		for _, rr := range eng.rete.rules {
			for _, n := range rr.nodes {
				if len(n.tokens) != 0 || n.succIdx != nil || n.negIdx != nil || n.elIdx != nil {
					t.Errorf("%s: rule %s node keeps tokens or indexes", mode, rr.r.Name)
				}
			}
			for _, tk := range append(rr.free, rr.root) {
				if tk.el != nil || tk.parent != nil || tk.match != nil || tk.node != nil || (tk != rr.root && tk.binds != nil) {
					t.Errorf("%s: rule %s free token keeps run references", mode, rr.r.Name)
				}
				for _, c := range tk.children[:cap(tk.children)] {
					if c != nil {
						t.Errorf("%s: rule %s token keeps a child", mode, rr.r.Name)
					}
				}
				for _, el := range tk.negMatches[:cap(tk.negMatches)] {
					if el != nil {
						t.Errorf("%s: rule %s token keeps blocker #%d", mode, rr.r.Name, el.ID)
					}
				}
			}
			for _, b := range rr.bindsFree {
				for _, v := range b {
					if v != nil {
						t.Errorf("%s: rule %s free binding vector keeps %v", mode, rr.r.Name, v)
					}
				}
			}
			for _, buf := range [][]*Match{rr.cs[:cap(rr.cs)], rr.agenda[:cap(rr.agenda)], rr.stale[:cap(rr.stale)]} {
				for _, m := range buf {
					if m != nil {
						t.Errorf("%s: rule %s keeps a match", mode, rr.r.Name)
					}
				}
			}
		}
	}
}

func TestPoolPutRejectsForeignEngine(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Put accepted an engine the pool did not build")
		}
	}()
	NewPool(poolRules).Put(NewEngine(NewWM()))
}

// Serial match time is apportioned over the touched rules by work; the
// shares must sum to the measured span exactly, and untouched rules get
// nothing.
func TestApportionSumsExactly(t *testing.T) {
	rt := &rete{}
	var total int64
	for i, jt := range []int{0, 7, 0, 1000, 3} {
		rr := &reteRule{}
		rr.stats.touched = i != 2
		rr.stats.joinTests = jt
		rr.stats.asserts = i
		if rr.stats.touched {
			total += rr.stats.work()
		}
		rt.rules = append(rt.rules, rr)
	}
	const elapsed = 999_999_937 * time.Nanosecond
	rt.apportion(elapsed, total)
	var sum time.Duration
	for _, rr := range rt.rules {
		sum += rr.stats.elapsed
	}
	if sum != elapsed {
		t.Errorf("apportioned %v, measured %v", sum, elapsed)
	}
	if rt.rules[2].stats.elapsed != 0 {
		t.Errorf("untouched rule charged %v", rt.rules[2].stats.elapsed)
	}
	if rt.rules[3].stats.elapsed <= rt.rules[1].stats.elapsed {
		t.Errorf("heavier rule charged %v, lighter %v", rt.rules[3].stats.elapsed, rt.rules[1].stats.elapsed)
	}
}
