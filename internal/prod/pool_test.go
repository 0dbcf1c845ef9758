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
			for id, p := range mem.pos[:cap(mem.pos)] {
				if p != 0 {
					t.Errorf("%s: alpha memory %d membership slot %d survives", mode, mem.id, id)
				}
			}
			for _, ix := range mem.indexes {
				for _, k := range ix.keys[:cap(ix.keys)] {
					if k != nil {
						t.Errorf("%s: alpha memory %d value index still holds key %v", mode, mem.id, k)
					}
				}
				if len(ix.bucket) != 0 || ix.lastKey != nil {
					t.Errorf("%s: alpha memory %d value buckets survive", mode, mem.id)
				}
			}
		}
		for _, el := range eng.rete.alpha.els[:cap(eng.rete.alpha.els)] {
			if el != nil {
				t.Errorf("%s: element slot table still holds element #%d", mode, el.ID)
			}
		}
		checkRulesScrubbed(t, mode, eng)
	}
}

// checkRulesScrubbed asserts that no rule's beta state still refers to a
// finished run: no stored token or token index, no element slot, binding
// vector or match object, in any slot of any buffer, past its length
// included.
func checkRulesScrubbed(t *testing.T, mode string, eng *Engine) {
	t.Helper()
	// Tokens and blockers name elements, parents and binding vectors by
	// index, so their arenas cannot hold a reference by construction;
	// pin that, then require them truncated to the root.
	if typ := reflect.TypeOf(token{}); holdsPointers(typ) || holdsPointers(reflect.TypeOf(blocker{})) {
		t.Fatalf("%s: token or blocker holds pointers: the arenas would keep run state reachable", typ)
	}
	for _, rr := range eng.rete.rules {
		for _, n := range rr.nodes {
			if len(n.tokens) != 0 || len(n.succIdx) != 0 || len(n.negIdx) != 0 || n.succOn || n.negOn {
				t.Errorf("%s: rule %s node keeps tokens or indexes", mode, rr.r.Name)
			}
		}
		if len(rr.toks) != 1 || len(rr.free) != 0 || len(rr.blk) != 1 || rr.blkFree != 0 || len(rr.bindsFree) != 0 || len(rr.msFree) != 0 {
			t.Errorf("%s: rule %s keeps tokens, blockers or free lists", mode, rr.r.Name)
		}
		if root := rr.toks[0]; root != (token{level: -1, el: -1}) {
			t.Errorf("%s: rule %s root token keeps links %+v", mode, rr.r.Name, root)
		}
		for id, head := range rr.elTok[:cap(rr.elTok)] {
			if head != 0 {
				t.Errorf("%s: rule %s element slot %d still heads token %d", mode, rr.r.Name, id, head)
			}
		}
		for _, v := range rr.binds[:cap(rr.binds)] {
			if v != nil {
				t.Errorf("%s: rule %s binding arena keeps %v", mode, rr.r.Name, v)
			}
		}
		for _, m := range rr.ms[1:] {
			for _, el := range m.Elements {
				if el != nil {
					t.Errorf("%s: rule %s match object keeps element #%d", mode, rr.r.Name, el.ID)
				}
			}
			if m.binds.vals != nil || m.onAgenda || m.tok != 0 {
				t.Errorf("%s: rule %s match object keeps bindings or links", mode, rr.r.Name)
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

// holdsPointers reports whether values of typ can refer to heap memory.
func holdsPointers(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64:
		return false
	case reflect.Array:
		return holdsPointers(typ.Elem())
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if holdsPointers(typ.Field(i).Type) {
				return true
			}
		}
		return false
	}
	return true
}

// A pooled engine that finished a large run indexes its element slots
// past every ID a small run reaches. Recycled onto a small WM, whose
// element IDs reuse the low slots, the engine must see only the new run:
// no membership, token or element slot of the old one, right after the
// seed and after the run, and a run identical to a freshly built engine's.
func TestPoolRecycledEngineReusesSlots(t *testing.T) {
	p := NewPool(poolRules)
	wm := NewWM()
	eng := p.Get(wm)
	poolRun(t, eng, wm, 80)
	if len(eng.rete.alpha.els) < 80 {
		t.Fatalf("the large run filled %d element slots, want at least 80", len(eng.rete.alpha.els))
	}
	eng.scrub()

	small := NewWM()
	made := map[int]*Element{} // every element of the small run, removed ones too
	small.Observe(func(c Change) {
		if c.Kind == ChangeMake {
			made[c.El.ID] = c.El
		}
	})
	eng.attach(small)
	checkSlots(t, "after scrub", eng, small, made)
	for i := 0; i < 6; i++ {
		small.Make("a", Attrs{"k": i % 5, "g": i % 4})
	}
	eng.applyChanges() // the seed: memories and tokens over the small WM
	checkSlots(t, "after the seed", eng, small, made)

	h := &poolHost{maxG: 3}
	var trace bytes.Buffer
	eng.Host, eng.TraceWriter = h, &trace
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	checkSlots(t, "after the run", eng, small, made)

	fresh := NewWM()
	ref := NewEngine(fresh)
	for _, r := range poolRules {
		ref.AddRule(r)
	}
	for i := 0; i < 6; i++ {
		fresh.Make("a", Attrs{"k": i % 5, "g": i % 4})
	}
	fh := &poolHost{maxG: 3}
	var ftrace bytes.Buffer
	ref.Host, ref.TraceWriter = fh, &ftrace
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	if trace.String() != ftrace.String() || fmt.Sprint(h.notes) != fmt.Sprint(fh.notes) {
		t.Errorf("recycled engine diverges from a fresh one:\n--- recycled\n%s%v\n--- fresh\n%s%v", trace.String(), h.notes, ftrace.String(), fh.notes)
	}
	if got, want := eng.Metrics(), ref.Metrics(); got.TokenAsserts != want.TokenAsserts || got.TokenRetracts != want.TokenRetracts ||
		got.JoinTests != want.JoinTests || got.AlphaEvals != want.AlphaEvals || got.TokensLive != want.TokensLive {
		t.Errorf("recycled engine's work %+v differs from a fresh engine's %+v", got, want)
	}
}

// checkSlots asserts that every element slot the engine holds belongs to
// the run over wm: the slot table maps only to elements made in it,
// memberships point at entries of live elements, and each rule's
// per-element token lists hold exactly its live tokens over them.
func checkSlots(t *testing.T, when string, eng *Engine, wm *WM, made map[int]*Element) {
	t.Helper()
	live := map[int]*Element{}
	for _, es := range wm.byClass {
		for _, el := range es {
			live[el.ID] = el
		}
	}
	for id, el := range eng.rete.alpha.els {
		if el != nil && made[id] != el {
			t.Errorf("%s: element slot %d holds %v, not an element of this run", when, id, el)
		}
	}
	for _, mem := range eng.rete.alpha.memList {
		members := 0
		for id, p := range mem.pos {
			if p == 0 {
				continue
			}
			members++
			if int(p) > len(mem.entries) || mem.entries[p-1].el != live[id] || live[id] == nil {
				t.Errorf("%s: alpha memory %d slot %d names entry %d, not a live member of this run", when, mem.id, id, p-1)
			}
		}
		if members != len(mem.entries) {
			t.Errorf("%s: alpha memory %d holds %d entries but %d membership slots", when, mem.id, len(mem.entries), members)
		}
	}
	for _, rr := range eng.rete.rules {
		positive := 0
		for _, n := range rr.nodes {
			if !n.neg {
				positive += len(n.tokens)
			}
		}
		listed := 0
		for id, head := range rr.elTok {
			for tk := head; tk != 0; tk = rr.toks[tk].elk.next {
				listed++
				if tok := rr.toks[tk]; tok.dead || int(tok.el) != id || live[id] == nil {
					t.Errorf("%s: rule %s lists token %d under slot %d, not a live token over a live element", when, rr.r.Name, tk, id)
				}
			}
		}
		if listed != positive {
			t.Errorf("%s: rule %s lists %d tokens by element, holds %d", when, rr.r.Name, listed, positive)
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
